"""One measured syzlab CLI call, run in a fresh process.

    python3 perfbench/child.py TIMING_FILE TRACE [CLI ARGS...]

Imports `syzlab.cli` from the checkout's `src/`, installs the tracer when
TRACE is 1, calls `syzlab.cli.main` with the CLI arguments and writes a
JSON record to TIMING_FILE: the monotonic time at which the import
returned, the seconds spent in `main` and the tracer's counters. With no
CLI arguments it stops after the import: a set-up probe. The exit code is
the CLI's.
"""

import json
import sys
import time
from pathlib import Path

SRC = (Path(__file__).resolve().parent.parent / "src").resolve()


def main() -> int:
    timing_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, str(SRC))
    import syzlab.cli

    record = {"imported_at": time.monotonic()}
    if not Path(syzlab.cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: imported {syzlab.cli.__file__}, not {SRC}\n")
        return 4
    tracer = None
    if argv and trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    try:
        rc = syzlab.cli.main(argv) if argv else 0
    finally:
        if argv:
            record["solve_s"] = time.monotonic() - start
        sys.stdout.flush()
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        with open(timing_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
