"""Set-up probe: do what one CLI job must do before its real work, then exit.

Usage: python3 perfbench/probe.py '{"p": 2, "n": 9, "fn": "...", "k": null, "t": null}'

Imports `ffspectra.cli`, builds the job's field and its acceleration tables,
and, when the job names a function, that function's value table.  Prints one
JSON line with `time.monotonic()` at the end of that work; on Linux this
clock is shared by all processes, so the caller subtracts its launch time.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    import ffspectra.cli  # noqa: F401  the CLI's own import cost
    from ffspectra.field import make_field
    from ffspectra.functions import parse_function

    if job.get("n") is not None:
        field = make_field(job.get("p") or 2, job["n"])
        field.tables()
        if job.get("fn"):
            parse_function(field, job["fn"], k=job.get("k"), t=job.get("t")).table()
    print(json.dumps({"end": time.monotonic()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
