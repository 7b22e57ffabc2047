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
    assert len(digests) == 198
    assert all(re.fullmatch("[0-9a-f]{64}", v) for v in digests.values())
    facts = [json.loads(line) for line in done.stderr.splitlines()
             if line.startswith('{"machine": ')]
    assert len(facts) == 1 and "numpy" in facts[0]["machine"]
