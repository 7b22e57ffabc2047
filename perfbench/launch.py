"""Traced stand-in for `python -m earforge.cli`, used by traced CLI ops.

    python launch.py SPANS_JSON OP_ID CLI_ARGS...

Times `import numpy` and `import earforge`, installs the same span wrappers
as the in-process workloads, runs `cli_main(CLI_ARGS)` and writes the spans
and import times to SPANS_JSON before exiting with cli_main's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed on its own: most of earforge's import)
t1 = time.perf_counter()
import earforge.cli  # noqa: E402
t2 = time.perf_counter()

from spans import Tracer  # noqa: E402


def main() -> int:
    out, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return earforge.cli.cli_main(sys.argv[3:])
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_numpy_s": t1 - t0, "import_s": t2 - t0,
                       "spans": tracer.export()}, fh)


if __name__ == "__main__":
    sys.exit(main())
