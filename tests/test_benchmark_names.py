"""Every function the benchmark's tracer wraps must exist in earforge.

`perfbench/spans.py` looks each traced (module, function) pair up with
getattr when it installs its spans, so deleting or renaming one of those
functions would crash the benchmark. This test fails first.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    traced = runpy.run_path(str(SPANS))["TRACED"]  # compiled, no .pyc written
    assert traced
    missing = []
    for mod, attr in traced:
        fn = getattr(importlib.import_module(f"earforge.{mod}"), attr, None)
        if not callable(fn):
            missing.append(f"earforge.{mod}.{attr}")
    assert not missing, f"traced by perfbench but missing: {missing}"
