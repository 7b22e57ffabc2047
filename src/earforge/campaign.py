"""Campaign orchestration: on-disk state, lifecycle, verification, reports.

A campaign lives in one directory:

    campaign.json     -- full state, schema-versioned, deterministic layout
    design.csv        -- the experiment plan in physical units
    models.json       -- fitted response surfaces
    optimum.json      -- optimization result
    runs/run_NN.csv   -- one rim profile per design point
    runs/baseline.csv, runs/optimum.csv  -- verification profiles
    reports/*.svg, reports/summary.txt

Stages advance monotonically: configured -> designed -> simulated -> fitted
-> optimized -> verified. Each command requires the previous stage and may
run once per campaign directory.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import geometry, modal, plant, report
from .doe import (DesignMatrix, Factor, FactorSpace, ROLE_CENTER, ccd_design,
                  default_factor_space, to_physical, write_design_csv)
from .errors import (CampaignLockedError, FreshStateError, LifecycleError,
                     MigrationNeededError, StateIntegrityError,
                     ValidationError)
from .geometry import BlankSpec, ContourProfile, CupSpec
from .optimizer import ConvergenceReport, ObjectiveSpec, Optimum, minimize
from .plant import DC05, MaterialAnisotropy, SurrogateParams
from .rsm import (QuadraticModel, ResponseTable, fit_quadratic,
                  models_from_dict, models_to_dict)

SCHEMA_VERSION = 1
STATE_FILE = "campaign.json"
LOCK_FILE = "campaign.lock"
DESIGN_FILE = "design.csv"
MODELS_FILE = "models.json"
OPTIMUM_FILE = "optimum.json"
RUNS_DIR = "runs"
REPORTS_DIR = "reports"

STAGES = ("configured", "designed", "simulated", "fitted", "optimized",
          "verified")

_AMPLITUDE_EPS = 1e-12


@dataclass
class CampaignConfig:
    """Everything needed to reproduce a campaign from scratch."""

    space: FactorSpace
    target_height: float = 35.0
    cup: CupSpec = field(default_factory=lambda: CupSpec(66.03, 35.0))
    material: MaterialAnisotropy = DC05
    surrogate: SurrogateParams = field(default_factory=SurrogateParams)
    n_modes: int = 5
    n_points: int = geometry.DEFAULT_N_POINTS

    def __post_init__(self):
        # the plant reads each design point as a blank (D, A1, A2)
        if self.space.names != ("D", "A1", "A2"):
            raise ValidationError(
                f"campaign factors must be ('D', 'A1', 'A2'), "
                f"got {self.space.names}")


def default_config() -> CampaignConfig:
    """Default campaign: blank factor ranges, 35 mm target, DC05 sheet."""
    return CampaignConfig(space=default_factor_space())


@dataclass
class RunRecord:
    """One executed design point."""

    run: int              # 1-based design order
    role: str
    normalized: tuple
    blank: tuple          # (D, A1, A2), mm
    profile_file: str     # path relative to the campaign directory
    sha256: str
    provenance: str       # "surrogate" or "ingested:<name>"
    lambdas: tuple
    residue: float


@dataclass
class VerificationRecord:
    """Optimal blank re-simulated on the plant, against the circular baseline."""

    optimum_lambdas: tuple
    optimum_residue: float
    optimum_amplitude: float
    baseline_lambdas: tuple
    baseline_amplitude: float
    reduction_factor: float | None  # baseline/optimum amplitude; None if undefined
    status: str                     # "ok", "not_applicable", or "unbounded"
    baseline_file: str
    baseline_sha256: str
    optimum_file: str
    optimum_sha256: str


@dataclass
class CampaignState:
    config: CampaignConfig
    design: DesignMatrix | None = None
    runs: list[RunRecord] = field(default_factory=list)
    models: list[QuadraticModel] | None = None
    optimum: Optimum | None = None
    verification: VerificationRecord | None = None
    timestamps: dict = field(default_factory=dict)

    def _done(self) -> list[bool]:
        """Whether each stage after `configured` has its data, in STAGES order."""
        return [self.design is not None, bool(self.runs),
                self.models is not None, self.optimum is not None,
                self.verification is not None]

    @property
    def stage(self) -> str:
        return STAGES[sum(self._done())]


def _require_stage(state: CampaignState, needed: str, command: str) -> None:
    have = state.stage
    if have != needed:
        if STAGES.index(have) > STAGES.index(needed):
            raise LifecycleError(
                f"`{command}` already done (campaign is {have}); "
                f"start a fresh campaign directory to redo it")
        article = "an" if needed[0] in "aeiou" else "a"
        raise LifecycleError(
            f"`{command}` needs {article} {needed} campaign, but this one is "
            f"only {have}; run the earlier stages first")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _complete(state: CampaignState, campaign_dir, stage: str) -> CampaignState:
    """Stamp the stage just done and save the state: the stage's commit point."""
    state.timestamps[stage] = _now()
    save_state(state, campaign_dir)
    return state


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload) -> None:
    """Deterministic JSON: sorted keys, two-space indent, LF line ends."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _write_profile(campaign_dir: Path, rel: str, profile: ContourProfile) -> str:
    """Write a rim profile into the campaign; returns the file's sha256."""
    geometry.write_contour_csv(campaign_dir / rel, profile.theta, profile.height)
    return _sha256(campaign_dir / rel)


@contextlib.contextmanager
def campaign_lock(campaign_dir):
    """Advisory single-writer lock on a campaign directory."""
    campaign_dir = Path(campaign_dir)
    campaign_dir.mkdir(parents=True, exist_ok=True)
    lock_path = campaign_dir / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CampaignLockedError(
            f"{lock_path} exists; another process is writing this campaign "
            f"(remove the file if that process is gone)") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock_path.unlink()


# ---------------------------------------------------------------------------
# serialization

_SCALARS = (str, int, float, type(None))


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _fields_dict(obj) -> dict:
    """A dataclass's fields, by name, as JSON-ready values.

    Nested dataclasses and tuples of them become dicts and lists of dicts,
    other tuples and arrays become lists, anything else is kept as is. Only
    those containers are walked, never the numbers inside them.
    """
    out = {}
    for name in _field_names(type(obj)):
        v = getattr(obj, name)
        if isinstance(v, _SCALARS):
            pass
        elif isinstance(v, tuple):
            v = [_fields_dict(x) for x in v] if v and is_dataclass(v[0]) else list(v)
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        elif is_dataclass(v):
            v = _fields_dict(v)
        out[name] = v
    return out


def _from_fields(cls, d: dict):
    """Inverse of _fields_dict for a record: each field read by name (a
    missing one is a KeyError, never a silent default), lists as tuples."""
    values = (d[name] for name in _field_names(cls))
    return cls(*(tuple(v) if isinstance(v, list) else v for v in values))


def _config_to_dict(config: CampaignConfig) -> dict:
    d = _fields_dict(config)
    d.update(d.pop("space"))  # schema 1 keeps factors and alpha at top level
    return d


def _config_from_dict(d: dict) -> CampaignConfig:
    factors = tuple(_from_fields(Factor, f) for f in d["factors"])
    return _from_fields(CampaignConfig, {
        **d, "space": FactorSpace(factors=factors, alpha=d["alpha"]),
        "cup": _from_fields(CupSpec, d["cup"]),
        "material": _from_fields(MaterialAnisotropy, d["material"]),
        "surrogate": _from_fields(SurrogateParams, d["surrogate"])})


def _optimum_to_dict(opt: Optimum, space: FactorSpace) -> dict:
    d = _fields_dict(opt)
    d["physical"] = dict(zip(space.names, d["physical"]))
    d["predicted"] = {f"L{i}": v for i, v in enumerate(d["predicted"], 1)}
    return d


def _optimum_from_dict(d: dict, space: FactorSpace) -> Optimum:
    predicted = [d["predicted"][f"L{i}"]
                 for i in range(1, len(d["predicted"]) + 1)]
    return Optimum(point=np.array(d["point"]), f_value=d["f_value"],
                   predicted=np.array(predicted),
                   report=_from_fields(ConvergenceReport, d["report"]),
                   physical=np.array([d["physical"][n] for n in space.names]))


def state_to_dict(state: CampaignState) -> dict:
    design, opt, v = state.design, state.optimum, state.verification
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _config_to_dict(state.config),
        "design": None if design is None else _fields_dict(design),
        "runs": [_fields_dict(r) for r in state.runs],
        "models": None if state.models is None else models_to_dict(state.models),
        "optimum": (None if opt is None
                    else _optimum_to_dict(opt, state.config.space)),
        "verification": None if v is None else _fields_dict(v),
        "timestamps": dict(state.timestamps),
    }


def state_from_dict(d: dict) -> CampaignState:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise MigrationNeededError(
            f"campaign schema {d.get('schema_version')!r} != supported "
            f"{SCHEMA_VERSION}; migrate the state file first")
    config = _config_from_dict(d["config"])
    state = CampaignState(config=config, timestamps=dict(d.get("timestamps", {})))
    if d.get("design") is not None:
        state.design = _from_fields(DesignMatrix, d["design"])
    state.runs = [_from_fields(RunRecord, r) for r in d.get("runs", [])]
    if d.get("models") is not None:
        state.models = models_from_dict(d["models"])
    if d.get("optimum") is not None:
        state.optimum = _optimum_from_dict(d["optimum"], config.space)
    if d.get("verification") is not None:
        state.verification = _from_fields(VerificationRecord, d["verification"])
    # lifecycle monotonicity: later stages never present without earlier ones
    done = state._done()
    if done != sorted(done, reverse=True):
        raise StateIntegrityError(
            "state file violates the campaign lifecycle (later stage "
            "present without its predecessor)")
    return state


def save_state(state: CampaignState, campaign_dir) -> Path:
    """Write campaign.json; byte-stable for identical states."""
    campaign_dir = Path(campaign_dir)
    campaign_dir.mkdir(parents=True, exist_ok=True)
    path = campaign_dir / STATE_FILE
    _write_json(path, state_to_dict(state))
    return path


def load_state(campaign_dir) -> CampaignState:
    """Read and validate campaign.json, including referenced-file hashes."""
    campaign_dir = Path(campaign_dir)
    path = campaign_dir / STATE_FILE
    if not path.exists():
        raise FreshStateError(
            f"no campaign state in {campaign_dir}; run "
            f"`earforge --campaign {campaign_dir} init` first")
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StateIntegrityError(f"{path} is not valid JSON: {exc}") from exc
    try:
        state = state_from_dict(d)
    except KeyError as exc:
        raise StateIntegrityError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise StateIntegrityError(f"{path}: malformed state: {exc}") from exc
    referenced = [(f"run {r.run}", r.profile_file, r.sha256) for r in state.runs]
    if state.verification is not None:
        v = state.verification
        referenced += [("baseline", v.baseline_file, v.baseline_sha256),
                       ("optimum", v.optimum_file, v.optimum_sha256)]
    for label, rel, digest in referenced:
        fpath = campaign_dir / rel
        if not fpath.exists():
            raise StateIntegrityError(f"{label}: missing contour file {rel}")
        if _sha256(fpath) != digest:
            raise StateIntegrityError(
                f"{label}: contour file {rel} does not match its recorded hash")
    return state


# ---------------------------------------------------------------------------
# stage operations

def init_campaign(campaign_dir, config: CampaignConfig | None = None) -> CampaignState:
    """Create a fresh campaign directory with the default configuration."""
    campaign_dir = Path(campaign_dir)
    if (campaign_dir / STATE_FILE).exists():
        raise ValidationError(
            f"{campaign_dir} already holds a campaign; refusing to overwrite")
    return _complete(CampaignState(config=config or default_config()),
                     campaign_dir, "configured")


def design_campaign(state: CampaignState, campaign_dir) -> CampaignState:
    """Emit the central composite design and design.csv."""
    _require_stage(state, "configured", "design")
    state.design = ccd_design(state.config.space)
    write_design_csv(Path(campaign_dir) / DESIGN_FILE, state.config.space,
                     state.design)
    return _complete(state, campaign_dir, "designed")


def simulate_campaign(state: CampaignState, campaign_dir,
                      ingest_dir=None) -> CampaignState:
    """Run all pending design points on the plant (or ingest external files).

    With ingest_dir set, each design point i reads <ingest_dir>/run_NN.csv
    instead of calling the surrogate; files may be polar profiles or raw
    point clouds (see plant.ingest_profile).
    """
    _require_stage(state, "designed", "simulate")
    campaign_dir = Path(campaign_dir)
    (campaign_dir / RUNS_DIR).mkdir(parents=True, exist_ok=True)
    cfg = state.config
    basis = modal.build_modal_basis(n_modes=cfg.n_modes)
    physical = to_physical(cfg.space, state.design.points)
    records = []
    for i, (point, role, phys) in enumerate(
            zip(state.design.points, state.design.roles, physical), start=1):
        blank = BlankSpec(*phys)
        if ingest_dir is None:
            profile = plant.simulate(blank, cfg.material, cfg.surrogate,
                                     cfg.n_points)
            provenance = "surrogate"
        else:
            src = Path(ingest_dir) / f"run_{i:02d}.csv"
            if not src.exists():
                raise ValidationError(f"ingest directory misses {src.name}")
            profile = plant.ingest_profile(src, cfg.n_points)
            provenance = f"ingested:{src.name}"
        rel = f"{RUNS_DIR}/run_{i:02d}.csv"
        sha256 = _write_profile(campaign_dir, rel, profile)
        coords = modal.decompose(profile, cfg.target_height, basis)
        records.append(RunRecord(
            run=i, role=role, normalized=tuple(point.tolist()),
            blank=(blank.diameter, blank.a1, blank.a2), profile_file=rel,
            sha256=sha256, provenance=provenance,
            lambdas=tuple(coords.lambdas.tolist()), residue=coords.residue))
    state.runs = records
    return _complete(state, campaign_dir, "simulated")


def response_table(state: CampaignState) -> ResponseTable:
    """Collected modal coordinates of the executed runs, in design order."""
    names = tuple(f"L{i}" for i in range(1, state.config.n_modes + 1))
    values = np.array([r.lambdas for r in state.runs])
    return ResponseTable(names=names, values=values)


def fit_campaign(state: CampaignState, campaign_dir) -> CampaignState:
    """Fit one quadratic surface per modal coordinate; writes models.json."""
    _require_stage(state, "simulated", "fit")
    state.models = fit_quadratic(state.design, response_table(state),
                                 factor_names=state.config.space.names)
    _write_json(Path(campaign_dir) / MODELS_FILE, models_to_dict(state.models))
    return _complete(state, campaign_dir, "fitted")


def optimize_campaign(state: CampaignState, campaign_dir) -> CampaignState:
    """Minimize the summed squared modal coordinates; writes optimum.json."""
    _require_stage(state, "fitted", "optimize")
    spec = ObjectiveSpec(models=tuple(state.models))
    state.optimum = minimize(spec, space=state.config.space)
    _write_json(Path(campaign_dir) / OPTIMUM_FILE,
                _optimum_to_dict(state.optimum, state.config.space))
    return _complete(state, campaign_dir, "optimized")


def verify_campaign(state: CampaignState, campaign_dir) -> CampaignState:
    """Re-simulate the optimal blank and compare with the circular baseline.

    The baseline is the circular blank at the area-conserving diameter of the
    configured cup. Reduction factor = baseline amplitude / optimum amplitude;
    reported as not applicable when the baseline itself is defect-free.
    """
    _require_stage(state, "optimized", "verify")
    campaign_dir = Path(campaign_dir)
    (campaign_dir / RUNS_DIR).mkdir(parents=True, exist_ok=True)
    cfg = state.config
    basis = modal.build_modal_basis(n_modes=cfg.n_modes)

    d0 = geometry.initial_blank_diameter(cfg.cup)
    baseline_profile = plant.simulate(BlankSpec(d0), cfg.material,
                                      cfg.surrogate, cfg.n_points)
    opt_blank = BlankSpec(*state.optimum.physical)
    opt_profile = plant.simulate(opt_blank, cfg.material, cfg.surrogate,
                                 cfg.n_points)

    base_coords = modal.decompose(baseline_profile, cfg.target_height, basis)
    opt_coords = modal.decompose(opt_profile, cfg.target_height, basis)
    base_amp = geometry.ear_amplitude(baseline_profile)
    opt_amp = geometry.ear_amplitude(opt_profile)
    if base_amp <= _AMPLITUDE_EPS:
        status, reduction = "not_applicable", None
    elif opt_amp <= _AMPLITUDE_EPS:
        status, reduction = "unbounded", None
    else:
        status, reduction = "ok", base_amp / opt_amp

    base_rel = f"{RUNS_DIR}/baseline.csv"
    opt_rel = f"{RUNS_DIR}/optimum.csv"
    state.verification = VerificationRecord(
        optimum_lambdas=tuple(opt_coords.lambdas.tolist()),
        optimum_residue=opt_coords.residue,
        optimum_amplitude=opt_amp,
        baseline_lambdas=tuple(base_coords.lambdas.tolist()),
        baseline_amplitude=base_amp,
        reduction_factor=reduction,
        status=status,
        baseline_file=base_rel,
        baseline_sha256=_write_profile(campaign_dir, base_rel, baseline_profile),
        optimum_file=opt_rel,
        optimum_sha256=_write_profile(campaign_dir, opt_rel, opt_profile),
    )
    return _complete(state, campaign_dir, "verified")


# ---------------------------------------------------------------------------
# reporting

def _center_run(state: CampaignState) -> RunRecord:
    for r in state.runs:
        if r.role == ROLE_CENTER:
            return r
    raise StateIntegrityError("campaign has no center run")


def _deviation_from_file(campaign_dir: Path, rel: str,
                         cfg: CampaignConfig) -> tuple[np.ndarray, np.ndarray]:
    theta, height = geometry.read_contour_csv(campaign_dir / rel)
    return theta, height - cfg.target_height


def report_campaign(state: CampaignState, campaign_dir) -> tuple[list, list]:
    """Write every report whose backing data exists.

    Returns (written, skipped) where skipped pairs each missing report with
    the stage that would produce its data. Raises LifecycleError when no
    report can be produced at all.
    """
    if state.stage in ("configured", "designed"):
        done = STAGES.index(state.stage)
        missing = STAGES[done + 1:STAGES.index("simulated") + 1]
        raise LifecycleError(
            "report needs at least a simulated campaign; missing stages: "
            + ", ".join(missing))
    campaign_dir = Path(campaign_dir)
    out_dir = campaign_dir / REPORTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = state.config
    written: list[str] = []
    skipped: list[tuple[str, str]] = []

    def emit(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")
        written.append(f"{REPORTS_DIR}/{name}")

    center = _center_run(state)
    theta, dev = _deviation_from_file(campaign_dir, center.profile_file, cfg)
    emit("deviation_polar.svg", report.polar_deviation_svg(
        theta, dev, f"Rim deviation, center run (target {cfg.target_height} mm)"))

    series = [("center run", np.array(center.lambdas))]
    if state.verification is not None:
        series.append(("optimum", np.array(state.verification.optimum_lambdas)))
    emit("modal_bars.svg", report.modal_bars_svg(series, "Modal coordinates (mm)"))

    if state.verification is not None:
        v = state.verification
        theta_b, dev_b = _deviation_from_file(campaign_dir, v.baseline_file, cfg)
        theta_o, dev_o = _deviation_from_file(campaign_dir, v.optimum_file, cfg)
        emit("overlay_polar.svg", report.overlay_polar_svg(
            theta_b, dev_b, dev_o, "nominal blank", "optimal blank",
            "Nominal vs optimum rim deviation"))
        emit("summary.txt", _summary_text(state))
    else:
        skipped.append((f"{REPORTS_DIR}/overlay_polar.svg", "verified"))
        skipped.append((f"{REPORTS_DIR}/summary.txt", "verified"))
    return written, skipped


def _summary_text(state: CampaignState) -> str:
    cfg = state.config
    opt = state.optimum
    v = state.verification
    names = cfg.space.names
    lines = ["Campaign summary", "================", ""]
    lines.append("Optimal blank (physical units):")
    for name, val in zip(names, opt.physical):
        lines.append(f"  {name:>3} = {val: .6f} mm")
    lines.append(f"  F   = {opt.f_value:.6e}")
    lines.append("")
    header = "  mode   predicted      verified"
    lines.append("Modal coordinates at the optimum (mm):")
    lines.append(header)
    for i, (p, w) in enumerate(zip(opt.predicted, v.optimum_lambdas), start=1):
        lines.append(f"  L{i}   {p: .6e}  {w: .6e}")
    lines.append("")
    lines.append(f"Ear amplitude, nominal blank : {v.baseline_amplitude:.6f} mm")
    lines.append(f"Ear amplitude, optimal blank : {v.optimum_amplitude:.6f} mm")
    if v.reduction_factor is None:
        lines.append(f"Amplitude reduction          : {v.status}")
    else:
        lines.append(f"Amplitude reduction          : {v.reduction_factor:.2f}x")
    lines.append("")
    return "\n".join(lines)
