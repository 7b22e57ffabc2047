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
import math
import os
import types
import typing
from dataclasses import dataclass, field, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import geometry, modal, plant, report
from .doe import (DesignMatrix, FactorSpace, ROLE_CENTER, ccd_design,
                  default_factor_space, to_physical, write_design_csv)
from .errors import (CampaignLockedError, FreshStateError, LifecycleError,
                     MigrationNeededError, StateIntegrityError,
                     ValidationError)
from .geometry import THETA, BlankSpec, ContourProfile, CupSpec
from .optimizer import ObjectiveSpec, Optimum, minimize
from .plant import DC05, MaterialAnisotropy, SurrogateParams
from .rsm import QuadraticModel, ResponseTable, fit_quadratic, term_names

SCHEMA_VERSION = 1
STATE_FILE = "campaign.json"
LOCK_FILE = "campaign.lock"
DESIGN_FILE = "design.csv"
MODELS_FILE = "models.json"
OPTIMUM_FILE = "optimum.json"
RUNS_DIR = "runs"
RUN_RIM = RUNS_DIR + "/run_{:02d}.csv"  # rim of design point 1, 2, ...
BASELINE_RIM = f"{RUNS_DIR}/baseline.csv"
OPTIMUM_RIM = f"{RUNS_DIR}/optimum.csv"
REPORTS_DIR = "reports"
# the plant reads each design point as a blank (D, A1, A2)
_FACTORS = ("D", "A1", "A2")

STAGES = ("configured", "designed", "simulated", "fitted", "optimized",
          "verified")

_AMPLITUDE_EPS = 1e-12
# The modal projection goes through BLAS, whose kernels differ between
# machines in the last bits (~1e-15 mm), so `report` holds a verified lambda
# or residue to this absolute tolerance (mm) and every other number bit for bit.
_PROJECTION_TOL = 1e-12
_PROJECTED = ("optimum_lambdas", "optimum_residue", "baseline_lambdas")


@dataclass
class CampaignConfig:
    """Everything needed to reproduce a campaign from scratch."""

    space: FactorSpace
    target_height: float = 35.0
    cup: CupSpec = field(default_factory=lambda: CupSpec(66.03, 35.0))
    material: MaterialAnisotropy = DC05
    surrogate: SurrogateParams = field(default_factory=SurrogateParams)

    def __post_init__(self):
        if self.space.names != _FACTORS:
            raise ValidationError(
                f"campaign factors must be {_FACTORS}, got {self.space.names}")
        geometry.check_finite(self)
        if self.target_height <= 0:
            raise ValidationError(
                f"target_height must be > 0, got {self.target_height}")


def default_config() -> CampaignConfig:
    """Default campaign: blank factor ranges, 35 mm target, DC05 sheet."""
    return CampaignConfig(space=default_factor_space())


@dataclass
class RunRecord:
    """One executed design point."""

    run: int              # 1-based design order
    role: str
    normalized: tuple[float, ...]
    blank: tuple[float, ...]  # (D, A1, A2), mm
    profile_file: str     # path relative to the campaign directory
    sha256: str
    provenance: str       # "surrogate" or "ingested:<name>"
    lambdas: tuple[float, ...]
    residue: float


@dataclass
class VerificationRecord:
    """Optimal blank re-simulated on the plant, against the circular baseline."""

    optimum_lambdas: tuple[float, ...]
    optimum_residue: float
    optimum_amplitude: float
    baseline_lambdas: tuple[float, ...]
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, payload) -> None:
    """Deterministic JSON: sorted keys, two-space indent, LF line ends."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _write_profile(campaign_dir: Path, rel: str, profile: ContourProfile) -> str:
    """Write a rim profile into the campaign; returns the file's sha256."""
    return _sha256(geometry.write_contour_csv(campaign_dir / rel, profile))


def _no_state(campaign_dir: Path) -> FreshStateError:
    return FreshStateError(
        f"no campaign state in {campaign_dir}; run "
        f"`earforge --campaign {campaign_dir} init` first")


@contextlib.contextmanager
def campaign_lock(campaign_dir):
    """Advisory single-writer lock on an existing campaign directory: a
    missing one holds no state, and locking it creates nothing."""
    campaign_dir = Path(campaign_dir)
    lock_path = campaign_dir / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            pid = lock_path.read_bytes().strip()
        except OSError:  # gone meanwhile, or not a file
            pid = b""
        holder = f", held by PID {pid.decode()}" if pid.isdigit() else ""
        raise CampaignLockedError(
            f"{lock_path} exists{holder}; another process is writing this "
            f"campaign (remove the file if that process is gone)") from None
    except FileNotFoundError:
        raise _no_state(campaign_dir) from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock_path.unlink()


# ---------------------------------------------------------------------------
# serialization

# JSON types a scalar annotation accepts: an int may stand for a float, and is
# read as that float
_ACCEPTS = {int: (int,), float: (int, float), str: (str,)}


# a dataclass's fields, name -> resolved annotation, in field order
_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _plan(cls) -> tuple[tuple[str, object, str], ...]:
    """Each field of dataclass `cls` as (name, annotation, where), in field
    order: `where` names it in errors."""
    return tuple((name, t, f"{cls.__name__}.{name}")
                 for name, t in _hints(cls).items())


@functools.cache
def _shape(annotation) -> tuple[bool, object, tuple]:
    """Whether `annotation` is a dataclass, and its typing origin and args."""
    return (is_dataclass(annotation), typing.get_origin(annotation),
            typing.get_args(annotation))


def _encode(value):
    """JSON-ready form of a state value: a dataclass as a dict of its fields,
    tuples, lists and arrays as lists; the numbers inside are not walked."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        walk = value and is_dataclass(value[0])
        return [_encode(v) for v in value] if walk else list(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return dict(value)
    if is_dataclass(value):
        return {name: _encode(getattr(value, name))
                for name, *_ in _plan(type(value))}
    return value


def _decode(annotation, value, where: str):
    """The object `annotation` describes, read from the JSON `value`: a missing
    dataclass field is a KeyError, a wrong value a TypeError naming `where`,
    an annotation no branch reads a NotImplementedError naming it."""
    if annotation in _ACCEPTS:
        if isinstance(value, bool) or not isinstance(value, _ACCEPTS[annotation]):
            raise TypeError(
                f"{where} must be {annotation.__name__}, got {value!r}")
        if annotation is float and not math.isfinite(value):
            raise ValueError(f"{where} must be finite, got {value!r}")
        return annotation(value)
    dataclass, origin, args = _shape(annotation)
    if dataclass or annotation is dict:
        if not isinstance(value, dict):
            raise TypeError(f"{where} must be an object, got {value!r}")
        if annotation is dict:
            return dict(value)
        return annotation(**{name: _decode(t, value[name], at)
                             for name, t, at in _plan(annotation)})
    if annotation is np.ndarray:  # 1-D, or 2-D as a list of rows
        rows = isinstance(value, list) and value and isinstance(value[0], list)
        return np.array(_decode(list[list[float]] if rows else list[float],
                                value, where), dtype=float)
    if origin is types.UnionType and len(args) == 2 and args[1] is type(None):
        return None if value is None else _decode(args[0], value, where)
    if origin is list and len(args) == 1 or origin is tuple and args[1:] == (...,):
        if not isinstance(value, list):
            raise TypeError(f"{where} must be a list, got {value!r}")
        return origin(_decode(args[0], v, f"{where}[{i}]")
                      for i, v in enumerate(value))
    raise NotImplementedError(f"{where}: no decoder for {annotation!r}")


def _models_to_dict(models) -> dict:
    """models.json: per response, named coefficients plus diagnostics."""
    return {m.response: {
        "coefficients": dict(zip(m.terms, m.coefficients.tolist())),
        "diagnostics": {"residual_rms": float(m.residual_rms),
                        "max_abs_residual": float(m.max_abs_residual)},
        "factors": list(m.factor_names),
    } for m in models}


def _optimum_to_dict(opt: Optimum, space: FactorSpace) -> dict:
    d = _encode(opt)
    d["physical"] = dict(zip(space.names, d["physical"]))
    d["predicted"] = dict(zip(_responses(len(d["predicted"])), d["predicted"]))
    return d


def _responses(n: int) -> list[str]:
    """L1..Ln: the names of the modal responses, in mode order."""
    return [f"L{i}" for i in range(1, n + 1)]


def _model_fields(response: str, entry: dict) -> dict:
    """QuadraticModel fields from one response's models.json entry, which
    uses the campaign's factors."""
    if entry["factors"] != list(_FACTORS):
        raise StateIntegrityError(f"models must use the factors {_FACTORS}")
    return {**entry["diagnostics"], "response": response,
            "factor_names": entry["factors"],
            "coefficients": [entry["coefficients"][t]
                             for t in term_names(_FACTORS)]}


def _check_layout(state: CampaignState) -> None:
    """Each per-mode section holds N_MODES entries, each run record is its
    design point as simulate recorded it, the optimum's point is on the factor
    cube and its physical blank is that point as optimize mapped it, and each
    rim file is where its stage put it, inside the campaign."""
    cfg, v, design = state.config, state.verification, state.design
    sized = [(f"runs[{i}].lambdas", r.lambdas) for i, r in enumerate(state.runs)]
    sized += [("models", state.models),
              ("optimum.predicted", getattr(state.optimum, "predicted", None))]
    sized += [(f"verification.{k}", getattr(v, k, None))
              for k in ("optimum_lambdas", "baseline_lambdas")]
    for section, values in sized:
        if values is not None and len(values) != modal.N_MODES:
            raise StateIntegrityError(f"{section} holds {len(values)} entries, "
                                      f"not n_modes = {modal.N_MODES}")
    pinned = []
    if state.runs:  # the lifecycle check has put the design before them
        if len(state.runs) != design.n_points:
            raise StateIntegrityError(f"runs holds {len(state.runs)} entries, "
                                      f"not the design's {design.n_points}")
        points = design.points.tolist()
        blanks = to_physical(cfg.space, design.points).tolist()
        pinned = [(f"runs[{i}].{k}", getattr(r, k), want)
                  for i, r in enumerate(state.runs)
                  for k, want in (("run", i + 1), ("role", design.roles[i]),
                                  ("normalized", tuple(points[i])),
                                  ("blank", tuple(blanks[i])),
                                  ("profile_file", RUN_RIM.format(i + 1)))]
    opt = state.optimum
    if opt is not None:
        # minimize returns a point on the factor cube [-1, 1]^3
        if opt.point.shape != (len(_FACTORS),) or not np.all(np.abs(opt.point) <= 1):
            raise StateIntegrityError(
                f"optimum.point must be {len(_FACTORS)} coordinates in [-1, 1], "
                f"got {opt.point.tolist()!r}")
        pinned.append(("optimum.physical", tuple(opt.physical.tolist()),
                       tuple(to_physical(cfg.space, opt.point).tolist())))
    pinned += [(f"verification.{k}", getattr(v, k, want), want) for k, want
               in (("baseline_file", BASELINE_RIM), ("optimum_file", OPTIMUM_RIM))]
    for where, got, want in pinned:
        if repr(got) != repr(want):  # bit for bit: -0.0 is not 0.0
            raise StateIntegrityError(f"{where} must be {want!r}, got {got!r}")


def state_to_dict(state: CampaignState) -> dict:
    # schema 1's layout: a flat config with the grid size and the mode count,
    # models and optimum as in their files
    d = {name: _encode(getattr(state, name))
         for name, *_ in _plan(CampaignState)
         if name not in ("models", "optimum")}
    d["config"].update(d["config"].pop("space"), n_points=geometry.N_POINTS,
                       n_modes=modal.N_MODES)
    d["models"] = (None if state.models is None
                   else _models_to_dict(state.models))
    d["optimum"] = (None if state.optimum is None
                    else _optimum_to_dict(state.optimum, state.config.space))
    return {"schema_version": SCHEMA_VERSION, **d}


def state_from_dict(d: dict) -> CampaignState:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise MigrationNeededError(
            f"campaign state has schema {d.get('schema_version')!r}; this "
            f"earforge reads schema {SCHEMA_VERSION} only")
    # undo schema 1's layout (a flat config with the one grid's size and the
    # one mode count, models and optimum as in their files), reading per-mode
    # keys as L1..Ln in order
    config = dict(d["config"])
    for key, want in (("n_points", geometry.N_POINTS),
                      ("n_modes", modal.N_MODES)):
        got = _decode(int, config.pop(key), f"CampaignConfig.{key}")
        if got != want:
            raise StateIntegrityError(
                f"CampaignConfig.{key} must be {want}, got {got}")
    config["space"] = {"factors": config.pop("factors"),
                       "alpha": config.pop("alpha")}
    models, opt = d["models"], d["optimum"]
    if models is not None:
        models = [_model_fields(r, models[r]) for r in _responses(len(models))]
    if opt is not None:
        names = [f["name"] for f in config["space"]["factors"]]
        opt = {**opt, "physical": [opt["physical"][n] for n in names],
               "predicted": [opt["predicted"][r]
                             for r in _responses(len(opt["predicted"]))]}
    state = _decode(CampaignState,
                    {**d, "config": config, "models": models, "optimum": opt},
                    "campaign state")
    # the design must be the config's CCD, bit for bit, so the fit has full
    # rank (equal roles fix the row count, equal bytes then the rest)
    design = state.design
    if design is not None:
        ccd = ccd_design(state.config.space)
        if (design.roles != ccd.roles
                or design.points.tobytes() != ccd.points.tobytes()):
            raise StateIntegrityError(
                "design is not the central composite design of the "
                "configured factor space")
    # lifecycle monotonicity: later stages never present without earlier ones
    done = state._done()
    if done != sorted(done, reverse=True):
        raise StateIntegrityError(
            "state file violates the campaign lifecycle (later stage "
            "present without its predecessor)")
    _check_layout(state)
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
        raise _no_state(campaign_dir)
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise StateIntegrityError(f"{path} is not valid JSON: {exc}") from exc
    try:
        state = state_from_dict(d)
    except KeyError as exc:
        raise StateIntegrityError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
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
        if _sha256(fpath.read_bytes()) != digest:
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
    physical = to_physical(cfg.space, state.design.points)
    records = []
    for i, (point, role, phys) in enumerate(
            zip(state.design.points, state.design.roles, physical), start=1):
        blank = BlankSpec(*phys)
        if ingest_dir is None:
            profile = plant.simulate(blank, cfg.material, cfg.surrogate)
            provenance = "surrogate"
        else:
            src = Path(ingest_dir) / f"run_{i:02d}.csv"
            if not src.exists():
                raise ValidationError(f"ingest directory misses {src.name}")
            profile = plant.ingest_profile(src)
            provenance = f"ingested:{src.name}"
        rel = RUN_RIM.format(i)
        sha256 = _write_profile(campaign_dir, rel, profile)
        coords = modal.decompose(profile, cfg.target_height)
        records.append(RunRecord(
            run=i, role=role, normalized=tuple(point.tolist()),
            blank=(blank.diameter, blank.a1, blank.a2), profile_file=rel,
            sha256=sha256, provenance=provenance,
            lambdas=tuple(coords.lambdas.tolist()), residue=coords.residue))
    state.runs = records
    return _complete(state, campaign_dir, "simulated")


def response_table(state: CampaignState) -> ResponseTable:
    """Collected modal coordinates of the executed runs, in design order."""
    return ResponseTable(names=tuple(_responses(modal.N_MODES)),
                         values=np.array([r.lambdas for r in state.runs]))


def fit_campaign(state: CampaignState, campaign_dir) -> CampaignState:
    """Fit one quadratic surface per modal coordinate; writes models.json."""
    _require_stage(state, "simulated", "fit")
    state.models = fit_quadratic(state.design, response_table(state),
                                 factor_names=state.config.space.names)
    _write_json(Path(campaign_dir) / MODELS_FILE, _models_to_dict(state.models))
    return _complete(state, campaign_dir, "fitted")


def optimize_campaign(state: CampaignState, campaign_dir) -> CampaignState:
    """Minimize the summed squared modal coordinates; writes optimum.json."""
    _require_stage(state, "fitted", "optimize")
    space = state.config.space
    opt = minimize(ObjectiveSpec(models=tuple(state.models)))
    state.optimum = replace(opt, physical=to_physical(space, opt.point))
    _write_json(Path(campaign_dir) / OPTIMUM_FILE,
                _optimum_to_dict(state.optimum, space))
    return _complete(state, campaign_dir, "optimized")


def _verified_numbers(baseline: ContourProfile, optimum: ContourProfile,
                      target_height: float) -> dict:
    """The VerificationRecord fields that follow from the two rims' heights."""
    base_coords = modal.decompose(baseline, target_height)
    opt_coords = modal.decompose(optimum, target_height)
    base_amp = geometry.ear_amplitude(baseline)
    opt_amp = geometry.ear_amplitude(optimum)
    if base_amp <= _AMPLITUDE_EPS:
        status, reduction = "not_applicable", None
    elif opt_amp <= _AMPLITUDE_EPS:
        status, reduction = "unbounded", None
    else:
        status, reduction = "ok", base_amp / opt_amp
    return dict(
        optimum_lambdas=tuple(opt_coords.lambdas.tolist()),
        optimum_residue=opt_coords.residue, optimum_amplitude=opt_amp,
        baseline_lambdas=tuple(base_coords.lambdas.tolist()),
        baseline_amplitude=base_amp, reduction_factor=reduction, status=status)


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
    d0 = geometry.initial_blank_diameter(cfg.cup)
    baseline_profile = plant.simulate(BlankSpec(d0), cfg.material,
                                      cfg.surrogate)
    opt_blank = BlankSpec(*state.optimum.physical)
    opt_profile = plant.simulate(opt_blank, cfg.material, cfg.surrogate)
    state.verification = VerificationRecord(
        **_verified_numbers(baseline_profile, opt_profile, cfg.target_height),
        baseline_file=BASELINE_RIM,
        baseline_sha256=_write_profile(campaign_dir, BASELINE_RIM, baseline_profile),
        optimum_file=OPTIMUM_RIM,
        optimum_sha256=_write_profile(campaign_dir, OPTIMUM_RIM, opt_profile),
    )
    return _complete(state, campaign_dir, "verified")


# ---------------------------------------------------------------------------
# reporting

def report_campaign(state: CampaignState, campaign_dir) -> tuple[list, list]:
    """Write every report whose backing data exists.

    Returns (written, skipped) where skipped pairs each missing report with
    the stage that would produce its data. Raises LifecycleError when no
    report can be produced at all, and StateIntegrityError, before writing
    anything, when a verified number is not what the verified rims give
    (lambdas and residue within _PROJECTION_TOL mm, the rest bit for bit).
    """
    if state.stage in ("configured", "designed"):
        done = STAGES.index(state.stage)
        missing = STAGES[done + 1:STAGES.index("simulated") + 1]
        raise LifecycleError(
            "report needs at least a simulated campaign; missing stages: "
            + ", ".join(missing))
    campaign_dir = Path(campaign_dir)
    cfg, v = state.config, state.verification
    if v is not None:
        rims = [plant.ingest_profile(campaign_dir / rel)
                for rel in (v.baseline_file, v.optimum_file)]
        for key, want in _verified_numbers(*rims, cfg.target_height).items():
            got = getattr(v, key)
            if key not in _PROJECTED:
                if repr(got) != repr(want):  # bit for bit
                    raise StateIntegrityError(
                        f"verification.{key} must be {want!r} as the rim "
                        f"files give it, got {got!r}")
            elif not np.all(np.abs(np.subtract(got, want)) <= _PROJECTION_TOL):
                raise StateIntegrityError(
                    f"verification.{key} must be within {_PROJECTION_TOL} mm "
                    f"of {want!r} as the rim files give it, got {got!r}")
    out_dir = campaign_dir / REPORTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    skipped: list[tuple[str, str]] = []

    def emit(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")
        written.append(f"{REPORTS_DIR}/{name}")

    center = state.runs[state.design.roles.index(ROLE_CENTER)]
    emit("deviation_polar.svg", report.polar_deviation_svg(
        THETA, plant.ingest_profile(campaign_dir / center.profile_file).height
        - cfg.target_height,
        f"Rim deviation, center run (target {cfg.target_height} mm)"))

    series = [("center run", np.array(center.lambdas))]
    if v is not None:
        series.append(("optimum", np.array(v.optimum_lambdas)))
    emit("modal_bars.svg", report.modal_bars_svg(series, "Modal coordinates (mm)"))

    if v is not None:
        emit("overlay_polar.svg", report.overlay_polar_svg(
            THETA, *(rim.height - cfg.target_height for rim in rims),
            "nominal blank", "optimal blank", "Nominal vs optimum rim deviation"))
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
