"""Re-measure the ROADMAP baseline rows through the benchmark's worker.

    python3 perfbench/baseline.py

Each row is one CLI call in a fresh interpreter, repeated REPEATS times;
the output is a JSON object with the median, minimum and maximum wall time
of the call (import excluded) per row, the median calibration-kernel time of
those processes (see run.KERNEL_REF_S), the Python version and the CPU count.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

import run

ROWS = {
    "table1 q=symbolic": ["verify", "--suite", "table1", "--q=symbolic"],
    "table1 q=-1/3": ["verify", "--suite", "table1", "--q=-1/3"],
    "grad-basis-roundtrip q=symbolic": ["verify", "--suite", "grad-basis-roundtrip", "--q=symbolic"],
    "bigcomrel q=symbolic": ["verify", "--suite", "bigcomrel", "--q=symbolic"],
    "eval (A*B)^22 q=symbolic": ["eval", "--q=symbolic", "(A*B)^22"],
}
REPEATS = 5


def main() -> int:
    rows = {}
    kernel = []
    for name, argv in ROWS.items():
        walls = []
        for _ in range(REPEATS):
            reply = run.spawn({"calls": [argv], "trace": False})
            call = reply["calls"][0]
            if call["traceback"]:
                raise SystemExit("%s: %s" % (name, call["traceback"]))
            walls.append(call["wall_s"])
            kernel += reply["kernel_s"]
        rows[name] = {
            "median_s": round(statistics.median(walls), 3),
            "min_s": round(min(walls), 3),
            "max_s": round(max(walls), 3),
            "repeats": REPEATS,
        }
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)),
                "kernel_ms": round(1e3 * statistics.median(kernel), 2),
                "rows": rows,
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
