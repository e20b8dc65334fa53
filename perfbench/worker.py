"""One fresh interpreter of the benchmark: import the CLI, run calls.

    python3 perfbench/worker.py < job.json

The parent puts the checkout's `src` on PYTHONPATH and records the spawn
time.  The job is a JSON object:

    {"calls": [argv, ...], "trace": bool, "eval": [{"tree", "q"}, ...] | null}

Every call goes through `qheis.cli.main(argv)` with stdout and stderr
captured.  The reply, one JSON object on stdout, holds the time the import
finished, each call's exit status, wall time, output digest and the times
at which report entries were created (the op boundaries of a verify call),
the peak RSS after the calls, the times of a fixed calibration kernel run
before and after the calls, the oracle verdicts for eval calls (checked after all
calls, outside the timed section) and, when traced, the per-layer
statistics.
"""

import time

import qheis.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import qheis.reports  # noqa: E402


def _stamp_entries(stamps):
    """Record the creation time of every report entry."""
    entry = qheis.reports.Entry
    init = entry.__init__

    def stamped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stamps.append(time.perf_counter())

    entry.__init__ = stamped


KERNEL_REPS = 3  # before the calls, and again after them


def kernel() -> None:
    """Fixed pure-Python work of the kind the program does: small integer
    polynomial products, list indexing, dictionary updates, tuple keys."""
    acc = {}
    a = tuple(range(1, 25))
    for r in range(200):
        b = tuple((x * 7 + r) % 19 - 9 for x in a)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        key = (r % 7, len(out))
        acc[key] = acc.get(key, 0) + sum(out)


def kernel_times():
    """Kernel times with the garbage collector off, so that they measure the
    host's speed and not the size of the heap the calls have left."""
    times = []
    gc.disable()
    try:
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def run_call(argv, stamps):
    out, err = io.StringIO(), io.StringIO()
    error = ""
    del stamps[:]
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qheis.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            error = traceback.format_exc()
    end = time.perf_counter()
    text = out.getvalue()
    return {
        "rc": rc,
        "wall_s": end - start,
        "op_s": [b - a for a, b in zip([start] + stamps, stamps)],
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stdout": text if argv[0] == "eval" else text[-400:],
        "stderr": err.getvalue()[-400:],
        "traceback": error[-2000:],
    }


def check_eval(items, calls):
    """Oracle verdicts for eval calls: the printed normal form must be the
    program's own normal form, and that form and its [A,B]-basis
    coordinates must act on Q[x] as the generated tree does."""
    import oracle
    from qheis.coeff import QValue
    from qheis.expr import eval_expr, parse

    verdicts = []
    for item, call in zip(items, calls):
        text = call["argv"][-1]
        try:
            result = eval_expr(parse(text), QValue.parse(item["q"]))
            printed = "normal form:  %s\n" % result.normal.render()
            lie = result.lie_coords.coords if result.lie_coords is not None else None
            ok = printed in call["stdout"] and oracle.check(
                item["tree"], item["q"], result.normal.terms, lie
            )
        except Exception:  # the program or the oracle raised: a failed op
            ok = False
        verdicts.append(ok)
    return verdicts


def main():
    job = json.load(sys.stdin)
    stamps = []
    _stamp_entries(stamps)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    kernel_s = kernel_times()
    calls = []
    for argv in job["calls"]:
        call = run_call(argv, stamps)
        call["argv"] = argv
        calls.append(call)
        if tracer is not None:
            tracer.entry_stamps += stamps
    reply = {
        "ready": READY,
        "module": qheis.cli.__file__,
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel_s": kernel_s + kernel_times(),
    }
    if tracer is not None:
        tracer.uninstall()
        reply["trace"] = tracer.report()
    if job.get("eval"):
        reply["oracle"] = check_eval(job["eval"], calls)
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
