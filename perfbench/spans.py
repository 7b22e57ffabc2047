"""In-memory spans around the calls into each earforge layer.

A `Tracer` wraps every earforge binding a call goes through: a module that
imports a function by name (`campaign` imports `minimize`, `fit_quadratic`
and `ccd_design`) holds its own reference, so `install` replaces the
function wherever it is bound in a loaded earforge module. Spans record
name, start, end, parent span and op id; counts are taken at the same
boundaries. Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) -> span name; several functions may share one name.
TRACED = {
    ("cli", "cli_main"): "cli.cli_main",
    ("campaign", "init_campaign"): "campaign.init_campaign",
    ("campaign", "design_campaign"): "campaign.design_campaign",
    ("campaign", "simulate_campaign"): "campaign.simulate_campaign",
    ("campaign", "fit_campaign"): "campaign.fit_campaign",
    ("campaign", "optimize_campaign"): "campaign.optimize_campaign",
    ("campaign", "verify_campaign"): "campaign.verify_campaign",
    ("campaign", "report_campaign"): "campaign.report_campaign",
    ("campaign", "save_state"): "campaign.save_state",
    ("campaign", "load_state"): "campaign.load_state",
    ("plant", "simulate"): "plant.simulate",
    ("plant", "ingest_profile"): "plant.ingest_profile",
    ("geometry", "deviation_vector"): "geometry.deviation_vector",
    ("geometry", "write_contour_csv"): "geometry.write_contour_csv",
    ("modal", "build_modal_basis"): "modal.build_modal_basis",
    ("modal", "project"): "modal.project",
    ("doe", "ccd_design"): "doe.ccd_design",
    ("rsm", "fit_quadratic"): "rsm.fit_quadratic",
    ("optimizer", "minimize"): "optimizer.minimize",
    ("report", "polar_deviation_svg"): "report.svg",
    ("report", "modal_bars_svg"): "report.svg",
    ("report", "overlay_polar_svg"): "report.svg",
}

# Stage functions whose writes are counted as campaign.bytes_written.
_WRITES_COUNTED = {name for name in TRACED.values() if name.endswith("_campaign")}


def _bytes_written() -> int:
    """Bytes this process has passed to write(2); 0 where /proc is absent."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """Spans of one process, kept in memory until `export`."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, op, counts]
        self._stack = []
        self._saved = []      # (module, attribute, original) while installed
        self.op = None

    def begin(self, name):
        """Open a span; returns its index. A span without a parent on the
        stack is a root (an op, or a process's first call)."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           None])
        self._stack.append(idx)
        return idx

    @property
    def current(self):
        """Index of the innermost open span."""
        return self._stack[-1]

    def end(self, idx, counts=None):
        assert self._stack and self._stack[-1] == idx, "spans must nest"
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if counts:
            span[5] = counts

    def _call(self, name, fn, args, kwargs):
        idx = self.begin(name)
        wrote = _bytes_written() if name in _WRITES_COUNTED else None
        counts = None
        try:
            result = fn(*args, **kwargs)
            if name == "optimizer.minimize":
                counts = {"starts": result.report.starts,
                          "steps": result.report.iterations}
            return result
        finally:
            if wrote is not None:
                counts = {"bytes_written": _bytes_written() - wrote}
            self.end(idx, counts)

    def install(self):
        """Wrap every traced function at each earforge binding."""
        assert not self._saved, "already installed"
        originals = {}
        for (mod, attr), name in TRACED.items():
            fn = getattr(sys.modules[f"earforge.{mod}"], attr)
            originals[id(fn)] = (fn, self._wrapper(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "earforge" and not mod_name.startswith("earforge."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans exported by another process under span `parent`."""
        offset = len(self.spans)
        for s in spans:
            p = parent if s["parent"] is None else offset + s["parent"]
            self.spans.append([s["name"], s["start"], s["end"], p, s["op"],
                               s["counts"]])

    def export(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o,
                 "counts": c} for n, s, e, p, o, c in self.spans]


def aggregate(spans: list[dict]) -> dict:
    """Per span name: calls, self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; the calls nest, so the children never overlap.
    """
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += (s["end"] - s["start"]) - child_s[i]
        for key, value in (s["counts"] or {}).items():
            row[key] += value
    return out
