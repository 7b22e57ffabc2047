"""Smoke check of the benchmark itself: python3 perfbench/smoke.py

Runs every workload at its smallest size (one second of ops), untraced and
traced, and asserts that:

* the last line has exactly `correct`, `attempted`, `failed` and `metrics`,
  and its metrics are exactly the end-to-end (untraced) or per-layer
  (traced) metrics of BENCHMARK.json, each with the unit listed there;
* the report line carries every end-to-end metric that applies to the
  workload, each with a unit;
* the benchmark fails, printing no result, in a directory holding only
  BENCHMARK.json and the benchmark's own files.

Exits 0 when all of this holds. It times nothing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics every report line carries, and those of some workloads.
ALWAYS = {"ops_per_s", "op_s_p50", "setup_s", "peak_rss_mb", "failed_frac"}
BY_WORKLOAD = {
    "campaign-cli": {"reduction_x_min", "oracle_excess_max"},
    "campaign-lib": {"reduction_x_min", "oracle_excess_max"},
    "metrology": {"lambda_err_max"},
    "optimize-rugged": {"oracle_excess_max"},
}
TAIL_MIN_SAMPLES = 20


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    *_, report_line, last_line = proc.stdout.strip().splitlines()
    last, report = json.loads(last_line), json.loads(report_line)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert last["correct"] is True, (workload, proc.stderr)
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in last["metrics"].items()}
    assert got == listed, (workload, trace, set(got) ^ set(listed))
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float)), m

    want = ALWAYS | BY_WORKLOAD[workload]
    metrics = report["metrics"]
    if report["timed_ops"] >= TAIL_MIN_SAMPLES:
        want.add("op_s_tail")
    missing = {k for k in want if not metrics.get(k, {}).get("unit")}
    assert not missing, (workload, missing)
    if "op_s_tail" in metrics:
        assert metrics["op_s_tail"]["samples"] == report["timed_ops"]
        assert metrics["op_s_tail"]["percentile"] >= 50
    assert report["machine"]["nproc"] >= 1
    print(f"ok  {workload:16s} trace={trace}  attempted {last['attempted']}")


def check_bare_directory():
    """Without the program's source the benchmark must fail cleanly."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "campaign-lib", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without earforge's source"
    assert "correct" not in proc.stdout, proc.stdout
    print("ok  bare directory fails with exit", proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(BY_WORKLOAD)
    for workload in BY_WORKLOAD:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
