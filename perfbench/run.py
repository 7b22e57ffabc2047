"""earforge benchmark: four seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run sets up (import, input generation, warm-up; three times, median
reported), then runs ops back to back until S seconds of op time have
passed, checking each op's outputs after its clock stops. The last stdout
line is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
which holds the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1. The line before it is the full report: every
metric with its unit, the workload-specific quality figures, and the
machine facts. `--all` runs every workload untraced and traced and prints
one table. README.md gives the reason for each workload and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import TRACED, Tracer, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 3
STAGE_TIMEOUT_S = 60
ORACLE_RESOLUTION = 41
ORACLE_TOL = 1e-6          # criterion-7 tolerance on F_opt - F_grid41
LAMBDA_TOL_MM = 0.05       # untilted rims: noise and resampling stay far below
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CLI_STAGES = ("init", "design", "simulate", "fit", "optimize", "verify",
              "report")

# Metrics on the last line; BENCHMARK.json lists the same names.
END_TO_END = {"ops_per_s": "1/s", "op_s_p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name in dict.fromkeys(TRACED.values()):
        if not name.endswith("_campaign"):
            units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units["optimizer.minimize.starts"] = "count/op"
    units["optimizer.minimize.steps"] = "count/op"
    units["campaign.bytes_written"] = "B/op"
    for stage in CLI_STAGES:
        units[f"cli.stage_s.{stage}"] = "s/op"
    units["startup.import_s"] = "s"
    units["startup.import_numpy_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


def child_env() -> dict:
    """The inherited environment with the checkout's src on PYTHONPATH.

    No BLAS or OpenMP thread variable is set here: thread settings are
    recorded as inherited, so a program-side change to them shows as a gain.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_probe() -> float:
    """`import earforge` time in a fresh interpreter, as each CLI stage pays it."""
    code = ("import time; t = time.perf_counter(); import earforge; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=STAGE_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def machine_facts(np) -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def canonical_state(campaign_dir: Path) -> str:
    """campaign.json without its `timestamps` field, as save_state lays it out."""
    state = json.loads((campaign_dir / "campaign.json").read_text(encoding="utf-8"))
    state.pop("timestamps")
    return json.dumps(state, indent=2, sort_keys=True) + "\n"


class OpFailed(Exception):
    """An op's output failed a correctness check."""


# ---------------------------------------------------------------------------
# Workloads. setup(rng, inputs) makes the inputs; op(i, tracer) is the timed
# call; check(i, result, quality) validates it after the clock stops and
# raises OpFailed. Warm-up ops have negative i.

class CampaignLib:
    """Whole campaign in-process through earforge.campaign, seeded configs."""

    name = "campaign-lib"
    n_configs = 256
    warmup_ops = 1

    def __init__(self, ef, work: Path):
        self.ef, self.work = ef, work
        self.first_state = None
        self.dirs = 0

    def fresh_dir(self) -> Path:
        """A new campaign directory per op, so a failed op leaves no clash."""
        self.dirs += 1
        return self.work / f"campaign{self.dirs}"

    def setup(self, rng, inputs):
        self.configs = inputs.campaign_configs(rng, self.ef, self.n_configs)

    def op(self, i, tracer=None):
        cp = self.ef.campaign
        d = self.fresh_dir()
        s = cp.init_campaign(d, self.configs[i % self.n_configs])
        s = cp.design_campaign(s, d)
        s = cp.simulate_campaign(s, d)
        s = cp.fit_campaign(s, d)
        s = cp.optimize_campaign(s, d)
        s = cp.verify_campaign(s, d)
        cp.report_campaign(s, d)
        return d, cp.load_state(d)

    def check(self, i, result, quality):
        d, state = result
        try:
            verified_ok(state, quality)
            oracle_ok(self.ef, self.ef.ObjectiveSpec(models=tuple(state.models)),
                      state.optimum.f_value, quality)
            if i == 0:
                self.first_state = canonical_state(d)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def repeat(self) -> bool:
        """Run op 0's config again; its state must match byte for byte."""
        d, _ = self.op(0)
        try:
            return canonical_state(d) == self.first_state
        finally:
            shutil.rmtree(d, ignore_errors=True)


class CampaignCli(CampaignLib):
    """Seven `python -m earforge.cli` processes over 15 seeded rim exports."""

    name = "campaign-cli"

    def setup(self, rng, inputs):
        self.ingest = self.work / "ingest"
        inputs.campaign_exports(rng, self.ingest)
        self.import_times = []
        self.stage_times = {stage: [] for stage in CLI_STAGES}

    def op(self, i, tracer=None):
        """Untraced ops run `python -m earforge.cli` as documented; traced
        ops run each stage through launch.py, which records spans."""
        d = self.fresh_dir()
        spans_file = self.work / "stage-spans.json"
        times = {}
        for stage in CLI_STAGES:
            args = ["--campaign", str(d), stage]
            if stage == "simulate":
                args += ["--ingest-dir", str(self.ingest)]
            if tracer is None:
                cmd = [sys.executable, "-m", "earforge.cli", *args]
            else:
                cmd = [sys.executable, str(HERE / "launch.py"), str(spans_file),
                       str(i), *args]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=child_env(), cwd=self.work,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=STAGE_TIMEOUT_S)
            times[stage] = time.perf_counter() - t0
            if proc.returncode != 0:
                raise OpFailed(f"stage {stage} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
            if tracer is not None:
                data = json.loads(spans_file.read_text(encoding="utf-8"))
                tracer.adopt(data["spans"], tracer.current)
                self.import_times.append((data["import_s"],
                                          data["import_numpy_s"]))
        return d, (None if tracer else times)

    def check(self, i, result, quality):
        d, times = result
        if i >= 0 and times:
            for stage, t in times.items():
                self.stage_times[stage].append(t)
        # load_state re-validates every recorded contour hash
        super().check(i, (d, self.ef.campaign.load_state(d)), quality)

    def peak_rss_mb(self):
        """The largest stage process's peak RSS."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def verified_ok(state, quality):
    v = state.verification
    if v is None or v.status != "ok":
        raise OpFailed(f"verification status {getattr(v, 'status', None)!r}")
    quality["reduction_x_min"] = min(quality.get("reduction_x_min", math.inf),
                                     v.reduction_factor)


def oracle_ok(ef, spec, f_opt, quality):
    """Criterion 7: the optimum may not lose to the 41^3 grid by more than 1e-6."""
    _, f_grid = ef.grid_oracle(spec, ORACLE_RESOLUTION)
    excess = max(0.0, f_opt - f_grid)
    quality["oracle_excess_max"] = max(quality.get("oracle_excess_max", 0.0),
                                       excess)
    if not math.isfinite(f_opt) or excess > ORACLE_TOL:
        raise OpFailed(f"F_opt {f_opt!r} exceeds grid optimum {f_grid!r}")


class Metrology:
    """In-process `decompose` of one seeded rim export per op."""

    name = "metrology"
    n_rims = 48
    warmup_ops = 8

    def __init__(self, ef, work: Path):
        self.ef, self.work = ef, work
        self.out = work / "coords.csv"

    def setup(self, rng, inputs):
        self.rims = inputs.metrology_rims(rng, self.work / "rims", self.n_rims)

    def op(self, i, tracer=None):
        rim = self.rims[i % self.n_rims]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return self.ef.cli.cli_main(["decompose", str(rim.path),
                                         "--output", str(self.out)])

    def check(self, i, code, quality):
        if code != 0:
            raise OpFailed(f"decompose exited {code}")
        with self.out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        lambdas = [float(r[1]) for r in rows[1:-1]]
        residue = float(rows[-1][1])
        rim = self.rims[i % self.n_rims]
        if rows[-1][0] != "residue" or not math.isfinite(residue):
            raise OpFailed(f"residue {rows[-1]!r}")
        if len(lambdas) != len(rim.amps):
            raise OpFailed(f"{len(lambdas)} modes, expected {len(rim.amps)}")
        err = max(abs(a - b) for a, b in zip(lambdas, rim.amps))
        quality["lambda_err_max"] = max(quality.get("lambda_err_max", 0.0), err)
        if not rim.tilted and not err <= LAMBDA_TOL_MM:
            raise OpFailed(f"{rim.path.name}: |lambda - amplitude| {err:.4g} mm")


class OptimizeRugged:
    """minimize() on five N(0,1) quadratics: the multi-basin regime."""

    name = "optimize-rugged"
    pool = 256
    warmup_ops = 1

    def __init__(self, ef, work: Path):
        self.ef = ef

    def setup(self, rng, inputs):
        self.models = [inputs.rugged_models(rng, self.ef) for _ in range(self.pool)]
        # Polish work varies about 40 % between objectives; a fixed warm-up
        # objective keeps set-up time independent of the seed.
        import numpy as np
        self.warmup = inputs.rugged_models(np.random.default_rng(0), self.ef)

    def op(self, i, tracer=None):
        models = self.warmup if i < 0 else self.models[i % self.pool]
        spec = self.ef.ObjectiveSpec(models=models)
        return spec, self.ef.minimize(spec)

    def check(self, i, result, quality):
        spec, opt = result
        oracle_ok(self.ef, spec, opt.f_value, quality)


WORKLOADS = {w.name: w for w in (CampaignCli, CampaignLib, Metrology,
                                 OptimizeRugged)}
QUALITY_UNITS = {"reduction_x_min": "x", "oracle_excess_max": "F",
                 "lambda_err_max": "mm"}


# ---------------------------------------------------------------------------

def tail(durations):
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(durations)
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def record(self, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)


def attempt(ef, wl, i, quality, tracer=None):
    """One op, timed, then its check, untimed. Returns (seconds, error)."""
    if tracer:
        tracer.op = i
        tracer.install()
        root = tracer.begin("op")
    error = None
    t0 = time.perf_counter()
    try:
        result = wl.op(i, tracer)
    except Exception:  # a failed op is counted, not fatal
        error = traceback.format_exc()
    finally:
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(root)
            tracer.uninstall()
    if error is None:
        try:
            wl.check(i, result, quality)
        except (OpFailed, OSError, ValueError, IndexError,
                ef.EarforgeError) as exc:
            error = f"op {i}: {exc!r}"
    return dt, error


def run_workload(name, seed, seconds, trace) -> int:
    if not (SRC / "earforge" / "__init__.py").is_file():
        print(f"error: no earforge source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    t1 = time.perf_counter()
    import earforge as ef
    import earforge.campaign  # noqa: F401
    import earforge.cli  # noqa: F401
    own_import = (time.perf_counter() - t0, t1 - t0)
    if Path(ef.__file__).resolve().parent != (SRC / "earforge").resolve():
        print(f"error: earforge imported from {ef.__file__}", file=sys.stderr)
        return 2
    import inputs  # imports numpy, so only after the import is timed

    tally = Tally()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t_import = import_probe()
            t0 = time.perf_counter()
            wl = WORKLOADS[name](ef, work)
            wl.setup(np.random.default_rng(seed), inputs)
            for i in range(1, wl.warmup_ops + 1):
                tally.record(attempt(ef, wl, -i, {})[1])
            setups.append(t_import + time.perf_counter() - t0)
        report, layers = measure(ef, wl, seconds, trace, own_import, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in tally.errors[:5]:
        print(msg, file=sys.stderr)
    report["setup_s"] = (statistics.median(setups), "s")
    report["failed_frac"] = (tally.failed / tally.attempted, "ratio")
    last = layers if trace else {k: report[k] for k in END_TO_END}
    print(json.dumps({"report": name, "seed": seed, "trace": int(trace),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "timed_ops": report.pop("timed_ops"),
                      "metrics": {k: as_metric(v) for k, v in
                                  {**report, **layers}.items()},
                      "machine": machine_facts(np)}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: as_metric(v[:2]) for k, v in last.items()}}))
    return 0


def as_metric(entry) -> dict:
    value, unit, *extra = entry
    return {"value": value, "unit": unit, **(extra[0] if extra else {})}


def measure(ef, wl, seconds, trace, own_import, tally):
    """The timed closed loop; returns (report metrics, per-layer metrics).

    Ops run back to back until `seconds` of op time have passed. A traced
    run gives each input to two ops, one traced and one not, in alternating
    order, so the untraced ops measure the tracing overhead on the same
    inputs under the same conditions.
    """
    tracer = Tracer() if trace else None
    durations, traced_s, untraced_s = [], [], []
    quality = {}
    completed = 0
    i = 0
    while sum(durations) < seconds or i == 0:
        k, traced = i, False
        if trace:
            k, traced = i // 2, bool(i % 2 ^ (i // 2) % 2)
        dt, error = attempt(ef, wl, k, quality, tracer if traced else None)
        tally.record(error)
        completed += error is None
        durations.append(dt)
        (traced_s if traced else untraced_s).append(dt)
        i += 1
    if hasattr(wl, "repeat"):
        try:
            error = None if wl.repeat() else (
                "determinism: the repeated config wrote a different "
                "campaign.json")
        except Exception:  # counted like any failed op
            error = traceback.format_exc()
        tally.record(error)

    peak_rss = (wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report = {
        "ops_per_s": (completed / sum(durations), "1/s"),
        "op_s_p50": (statistics.median(durations), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "timed_ops": len(durations),
    }
    tail_at = tail(durations)
    if tail_at:
        report["op_s_tail"] = (tail_at[1], "s", {"percentile": tail_at[0],
                                                 "samples": len(durations)})
    for key, value in quality.items():
        report[key] = (value, QUALITY_UNITS[key])
    if not trace:
        return report, {}
    spans = tracer.export()
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    WORK.joinpath("traces", f"{wl.name}-{os.getpid()}.json").write_text(
        json.dumps(spans), encoding="utf-8")
    return report, layer_metrics(aggregate(spans), wl, own_import,
                                 traced_s, untraced_s)


def layer_metrics(agg, wl, own_import, traced_s, untraced_s):
    """Per-layer metrics per traced op; zero for layers the workload skips."""
    units = per_layer_units()
    n = max(len(traced_s), 1)
    out = {}
    for key, unit in units.items():
        name, _, field = key.rpartition(".")
        if name in agg:
            out[key] = (agg[name][field] / n, unit)
    out["campaign.bytes_written"] = (
        sum(row["bytes_written"] for row in agg.values()) / n, "B/op")
    for stage, times in getattr(wl, "stage_times", {}).items():
        out[f"cli.stage_s.{stage}"] = (statistics.fmean(times) if times else 0.0,
                                       "s/op")
    imports = getattr(wl, "import_times", None) or [own_import]
    out["startup.import_s"] = (statistics.fmean(t for t, _ in imports), "s")
    out["startup.import_numpy_s"] = (statistics.fmean(t for _, t in imports), "s")
    if traced_s and untraced_s:
        rate_t = len(traced_s) / sum(traced_s)
        rate_u = len(untraced_s) / sum(untraced_s)
        out["trace.overhead_pct"] = (100.0 * (rate_u - rate_t) / rate_u, "%")
    return {k: out.get(k, (0.0, u)) for k, u in units.items()}


def run_all(seed, seconds) -> int:
    """Every workload untraced then traced, one table of all metrics."""
    rows, ok = [], True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            report, last = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= last["correct"]
            rows.append((name, trace, report))
    layer_names = per_layer_units()
    for name, trace, report in rows:
        print(f"== {name} ({'traced' if trace else 'untraced'}): "
              f"attempted {report['attempted']}, failed {report['failed']}")
        for key, m in report["metrics"].items():
            if key in layer_names and m["value"] == 0:
                continue  # a layer this workload does not call
            extra = (f"  (p{m['percentile']:g} of {m['samples']})"
                     if "percentile" in m else "")
            print(f"  {key:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"machine": rows[-1][2]["machine"] if rows else None}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
