"""Every committed BENCH_*.json must hold complete, tagged benchmark results.

A BENCH file keeps the last result line of each `perfbench/run.py` run
behind a performance claim, tagged with the workload, seed, side (`parent`
or `change`) and the code measured. An untraced run's line carries every
end-to-end metric BENCHMARK.json names, a traced run's line every per-layer
metric, each with the unit BENCHMARK.json gives it.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_complete(path):
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert runs
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    units = {trace: {m["name"]: m["unit"] for m in BENCHMARK[section]}
             for trace, section in ((0, "end_to_end"), (1, "per_layer"))}
    for i, run in enumerate(runs):
        where = f"{path.name} runs[{i}]"
        assert run["workload"] in workloads, where
        assert isinstance(run["seed"], int), where
        assert run["side"] in ("parent", "change"), where
        assert isinstance(run["commit"], str) and run["commit"], where
        assert isinstance(run["correct"], bool), where
        assert isinstance(run["attempted"], int), where
        assert isinstance(run["failed"], int), where
        assert 0 <= run["failed"] <= run["attempted"], where
        metrics = run["metrics"]
        for name, unit in units[run["trace"]].items():
            assert metrics[name]["unit"] == unit, f"{where} {name}"
            assert isinstance(metrics[name]["value"], (int, float)), \
                f"{where} {name}"
