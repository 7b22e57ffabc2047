"""Print the sha256 of every artefact of a fixed set of seeded campaigns.

Run it on two checkouts and diff the outputs to check that a change keeps
every campaign artefact and every `decompose` output byte for byte:

    python tools/artefact_digests.py > digests.json

Hashed, each in a fresh temporary directory:

* every file of six full campaigns (init through report): the default
  config, four perfbench `campaign_configs` (seed 7), and the default config
  on perfbench's `campaign_exports` (seed 9) through `simulate --ingest-dir`.
  The first five run in process and end with a `load_state`/`save_state`
  round trip of `campaign.json`; the ingested one runs through `cli_main`,
  one call per stage, so each stage loads, checks and saves the state as a
  CLI campaign does.
  `campaign.json` is hashed as written, byte for byte, except that each
  stage timestamp (`"YYYY-MM-DDTHH:MM:SS+00:00"`) reads as a fixed
  placeholder;
* the exit code and stdout of `earforge decompose` on each of the 48
  perfbench `metrology_rims` (seed 5);
* `minimize` and `grid_oracle(spec, 41)` on the 256 objectives of
  perfbench's optimize-rugged pool (`rugged_models`, seed 1), one digest per
  32 objectives: each optimum's point, F, predicted values and convergence
  report, and the oracle's point and F.

The output is sorted JSON, one `"name": "sha256"` pair per line. It is not
part of the test suite and takes a few seconds.

Where the digests differ, the numbers say by how much:

    python tools/artefact_digests.py --numbers > a.json   # on each side
    python tools/artefact_digests.py --compare a.json b.json

`--numbers` prints, in place of each digest, the artefact's numbers and the
sha256 of its layout, one artefact per line. A text artefact's numbers are
its numeric tokens after the timestamp mask (a 64-digit hex digest counts as
text), and its layout is the text with each of them, and the spaces before
it, replaced by `#`. A rugged digest's numbers are its optima's arrays and
scalars in hashing order. `--compare` prints, for each artefact whose
numbers differ, the max absolute and the max relative difference of its
numbers, led by `layout` where its layout differs too, and `layout` alone
where the count of its numbers differs. It prints nothing and exits 0 when
no artefact differs, and exits 1 otherwise.

Floating-point results may depend on the numpy build, the CPU features its
kernels dispatch to and the BLAS (its version, the kernel core it picked at
run time, its thread settings), so the script prints those facts as one
JSON line to stderr. Stdout holds the digests alone: two checkouts run on
one machine still diff cleanly.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import earforge as ef  # noqa: E402
from earforge import campaign as cp  # noqa: E402
from earforge.cli import cli_main  # noqa: E402

# compiled in memory, so no bytecode is written under perfbench/
INPUTS = runpy.run_path(str(ROOT / "perfbench" / "inputs.py"),
                        run_name="perfbench_inputs")


# a stage timestamp as campaign._now writes it, quotes included
TIMESTAMP = re.compile(rb'"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\+00:00"')
# a sha256 hex digest (text), or a decimal number (group 1) with the spaces
# that pad it, whose count changes with the number's sign in a table column
TOKEN = re.compile(rb"[0-9a-f]{64}| *([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def openblas_runtime_config() -> str | None:
    """The config string of the OpenBLAS numpy bundles, as it runs here.

    It names the kernel core a DYNAMIC_ARCH build picked for this CPU, which
    the build-time config cannot know. None for another BLAS or layout.
    """
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas*")):
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(str(lib))
            for name in ("scipy_openblas_get_config64_",
                         "scipy_openblas_get_config"):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_char_p
                    return fn().decode()
    return None


def machine_facts() -> dict:
    config = {}
    with contextlib.suppress(TypeError):  # numpy < 1.26 has no dict mode
        config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "cpu_baseline": simd.get("baseline"),
        "cpu_dispatch_found": simd.get("found"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": openblas_runtime_config(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_campaign(d: Path, config=None) -> None:
    state = cp.init_campaign(d, config)
    for stage in (cp.design_campaign, cp.simulate_campaign, cp.fit_campaign,
                  cp.optimize_campaign, cp.verify_campaign):
        state = stage(state, d)
    cp.report_campaign(state, d)
    # a CLI stage loads and saves the state: the round trip must keep its bytes
    cp.save_state(cp.load_state(d), d)


def run_cli_campaign(d: Path, ingest_dir: Path) -> None:
    stages = (["init"], ["design"], ["simulate", "--ingest-dir", str(ingest_dir)],
              ["fit"], ["optimize"], ["verify"], ["report"])
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in stages:
            code = cli_main(["--campaign", str(d), *stage])
            if code != 0:
                raise SystemExit(f"{d.name}: `{stage[0]}` exited {code}")


def campaign_texts(name: str, d: Path) -> dict:
    out = {}
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == cp.STATE_FILE:
            data = TIMESTAMP.sub(b'"<timestamp>"', data)
        out[f"{name}/{path.relative_to(d).as_posix()}"] = data
    return out


def decompose_text(path: Path) -> bytes:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["decompose", str(path)])
    return f"exit {code}\n{stdout.getvalue()}".encode()


def rugged_results() -> dict:
    """Per 32 objectives of the rugged pool: each one's arrays (optimum point,
    predicted values, oracle point) and scalars (F, starts, steps, projected
    gradient norm, oracle F)."""
    rng = np.random.default_rng(1)
    specs = [ef.ObjectiveSpec(models=INPUTS["rugged_models"](rng, ef))
             for _ in range(256)]
    out = {}
    for first in range(0, len(specs), 32):
        results = []
        for spec in specs[first:first + 32]:
            opt = ef.minimize(spec)
            point, value = ef.grid_oracle(spec, 41)
            r = opt.report
            results.append(((opt.point, opt.predicted, point),
                            (opt.f_value, r.starts, r.iterations,
                             r.gradient_norm, value)))
        out[f"rugged/{first:03d}-{first + 31:03d}"] = results
    return out


def rugged_digest(results: list) -> str:
    h = hashlib.sha256()
    for arrays, scalars in results:
        for data in arrays:
            h.update(np.ascontiguousarray(data, dtype=float).tobytes())
        h.update(repr(scalars).encode())
    return h.hexdigest()


def text_numbers(data: bytes) -> dict:
    numbers = []

    def take(match):
        if match[1] is None:
            return match[0]
        numbers.append(float(match[1]))
        return b"#"

    return {"layout": sha256(TOKEN.sub(take, data)), "numbers": numbers}


def rugged_numbers(results: list) -> dict:
    numbers = []
    for arrays, scalars in results:
        for data in arrays:
            numbers += np.asarray(data, dtype=float).tolist()
        numbers += [float(x) for x in scalars]
    return {"layout": sha256(b"rugged"), "numbers": numbers}


def collect() -> tuple[dict, dict]:
    """The text artefacts and the rugged results, by artefact name."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        campaigns = [("default", None)]
        configs = INPUTS["campaign_configs"](np.random.default_rng(7), ef, 4)
        campaigns += [(f"config_{i}", c) for i, c in enumerate(configs)]
        INPUTS["campaign_exports"](np.random.default_rng(9), tmp / "exports")
        for name, config in campaigns:
            run_campaign(tmp / name, config)
            texts.update(campaign_texts(name, tmp / name))
        run_cli_campaign(tmp / "ingested", tmp / "exports")
        texts.update(campaign_texts("ingested", tmp / "ingested"))
        rims = INPUTS["metrology_rims"](np.random.default_rng(5),
                                        tmp / "rims", 48)
        for rim in rims:
            texts[f"decompose/{rim.path.name}"] = decompose_text(rim.path)
    return texts, rugged_results()


def compare(path_a: Path, path_b: Path) -> int:
    """Print how each artefact's numbers differ between two --numbers dumps."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    differ = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            differ += 1
            continue
        x, y = a[name], b[name]
        if len(x["numbers"]) != len(y["numbers"]):
            print(f"{name}: layout")
            differ += 1
            continue
        u, v = np.array(x["numbers"], dtype=float), np.array(y["numbers"], dtype=float)
        layout = "layout, " if x["layout"] != y["layout"] else ""
        if not layout and u.tobytes() == v.tobytes():  # -0.0 != 0.0, as in a digest
            continue
        differ += 1
        diff = np.abs(u - v)
        scale = np.maximum(np.abs(u), np.abs(v))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        print(f"{name}: {layout}max abs {np.max(diff, initial=0.0):.3e}, "
              f"max rel {np.max(rel, initial=0.0):.3e}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--numbers", action="store_true",
                      help="print each artefact's numbers and layout digest")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                      help="compare two --numbers dumps")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    print(json.dumps({"machine": machine_facts()}, sort_keys=True),
          file=sys.stderr)
    texts, rugged = collect()
    if args.numbers:
        out = {name: text_numbers(data) for name, data in texts.items()}
        out.update((name, rugged_numbers(r)) for name, r in rugged.items())
        print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(out[k])}"
                                  for k in sorted(out)) + "\n}")
    else:
        digests = {name: sha256(data) for name, data in texts.items()}
        digests.update((name, rugged_digest(r)) for name, r in rugged.items())
        print(json.dumps(digests, indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
