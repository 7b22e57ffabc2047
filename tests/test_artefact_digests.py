"""`tools/artefact_digests.py`, the byte-identity guard of refactors, runs."""

import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artefact_digests.py"


def test_prints_every_digest_and_the_machine_facts():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert len(digests) == 206
    assert all(re.fullmatch("[0-9a-f]{64}", v) for v in digests.values())
    facts = [json.loads(line) for line in done.stderr.splitlines()
             if line.startswith('{"machine": ')]
    assert len(facts) == 1 and "numpy" in facts[0]["machine"]


def test_compare_reports_the_size_of_a_nudged_number(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), "--numbers"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    dump = json.loads(done.stdout)
    assert len(dump) == 206
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(done.stdout)

    def compare(*paths):
        return subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                              capture_output=True, text=True, timeout=60)

    same = compare(str(a), str(a))
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    name = "default/optimum.json"
    numbers = dump[name]["numbers"]
    i = next(j for j, x in enumerate(numbers) if 0.5 <= abs(x) < 1)  # A2
    old, numbers[i] = numbers[i], numbers[i] + 1e-15
    diff = abs(numbers[i] - old)
    assert 0 < diff < 2e-15
    b.write_text(json.dumps(dump))
    nudged = compare(str(a), str(b))
    rel = diff / max(abs(old), abs(numbers[i]))
    assert nudged.returncode == 1
    assert nudged.stdout == f"{name}: max abs {diff:.3e}, max rel {rel:.3e}\n"
