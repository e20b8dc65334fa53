"""The qheis benchmark.

    python3 perfbench/run.py --workload verify-symbolic --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from `src`.
Every call is `qheis.cli.main(argv)` in a fresh interpreter started by
`worker.py`, because a user pays import time and cold caches on every CLI
call.  There is one caller and no threads: the next process starts when
the previous one has ended.  A run repeats whole passes of its workload
while the next one is expected to end within --seconds, checking the
output of every call as it goes, then prints its metrics; the last line of
stdout is one JSON object.

Workloads (why each exists is in BENCHMARK.json):

- verify-symbolic: table1, bigcomrel and grad-basis-roundtrip at
  symbolic q, one process per suite.  An op is one report entry.
- verify-specialized: the same three suites at q = -1/3, plus the three
  q = 0 suites with raised bounds.
- eval-session: sessions of exprgen.SESSION_LEN expressions, one process
  per session, each expression one `qheis eval` call (one op).

With --trace 1 each pass runs once untraced and once traced; the
per-layer metrics come from the first traced pass (see tracer.py) and the
tracing overhead from the median pass of each kind.  A traced run writes
the spans of its first traced pass to perfbench/.work/spans-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import checks
import exprgen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")
CALL_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # a run that would take longer fails instead
# Time of worker.kernel on the 2-vCPU host the notes were measured on; the
# *_ref metrics are rescaled to a host on which the kernel takes this long.
KERNEL_REF_S = 0.014

GRAD_COUNT = 60
ZERO_BOUNDS = {
    "zero-basis": {"mn": 10, "fer": 14, "idx": 12},
    "zero-ideal": {"mn": 10, "idx": 12, "cor": 10},
    "zero-nilpotent": {"r": 6, "idx": 12},
}
TRIO = ("table1", "bigcomrel", checks.GRAD_SUITE)


def verify_calls(workload: str, seed: int) -> List[tuple]:
    """(suite, q, bounds) of one pass."""
    q = "symbolic" if workload == "verify-symbolic" else "-1/3"
    out = []
    for suite in TRIO:
        bounds = {"count": GRAD_COUNT, "seed": seed} if suite == checks.GRAD_SUITE else {}
        out.append((suite, q, bounds))
    if workload == "verify-specialized":
        out += [(suite, "0", dict(b)) for suite, b in ZERO_BOUNDS.items()]
    return out


def verify_argv(suite: str, q: str, bounds: Dict[str, int], report: str) -> List[str]:
    argv = ["verify", "--suite", suite, "--q=" + q, "--jobs", "1"]
    for kv in sorted(bounds.items()):
        argv += ["--bound", "%s=%d" % kv]
    return argv + ["--json", report]


def spawn(job: dict, timeout: float = CALL_TIMEOUT_S) -> dict:
    """Run one worker process; returns its reply plus the setup time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n" + proc.stderr[-3000:])
    reply = json.loads(proc.stdout)
    if os.path.dirname(os.path.dirname(os.path.abspath(reply["module"]))) != SRC:
        raise RuntimeError("qheis was imported from %s, not %s" % (reply["module"], SRC))
    reply["setup_s"] = reply["ready"] - spawned
    return reply


class Pass:
    """The results of one pass: per slot (suite or session) the ops, the
    failed ops, the timed wall time, the op latencies, and the set-up and
    calibration-kernel times of the slot's worker."""

    def __init__(self):
        self.slots: Dict[str, dict] = {}
        self.rss_kb: List[int] = []
        self.traces: List[dict] = []

    def add(self, slot: str, reply: dict, ops: int, failed: int, latencies: List[float]):
        self.slots[slot] = {
            "ops": ops,
            "failed": failed,
            "wall_s": sum(c["wall_s"] for c in reply["calls"]),
            "op_s": latencies,
            "kernel_s": statistics.median(reply["kernel_s"]),
            "setup_s": reply["setup_s"],
        }
        self.rss_kb.append(reply["peak_rss_kb"])
        if "trace" in reply:
            self.traces.append(reply["trace"])

    @property
    def wall_s(self) -> float:
        return sum(s["wall_s"] for s in self.slots.values())


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.verify_expected, self.pool = checks.load_expected()
        self.trees = exprgen.pool()
        if [(p["text"], p["q"]) for p in self.trees] != [(p["text"], p["q"]) for p in self.pool]:
            raise RuntimeError("expected/eval.json does not match exprgen.pool()")
        self.sessions = exprgen.sessions(seed, [p["cost_ms"] for p in self.pool])
        self.planned: List[List[int]] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S
        os.makedirs(WORK, exist_ok=True)

    def spawn(self, job: dict) -> dict:
        return spawn(job, timeout=max(1.0, self.deadline - time.monotonic()))

    def run_pass(self, index: int, trace: bool) -> Pass:
        if self.workload == "eval-session":
            return self._eval_pass(index, trace)
        return self._verify_pass(trace)

    def _verify_pass(self, trace: bool) -> Pass:
        result = Pass()
        for suite, q, bounds in verify_calls(self.workload, self.seed):
            path = os.path.join(WORK, "report-%d.json" % os.getpid())
            if os.path.exists(path):
                os.remove(path)
            reply = self.spawn({"calls": [verify_argv(suite, q, bounds, path)], "trace": trace})
            call = reply["calls"][0]
            report = None
            if os.path.exists(path):
                with open(path) as fh:
                    try:
                        report = json.load(fh)
                    except ValueError:  # unreadable: counted like a missing report
                        pass
                os.remove(path)
            want = checks.expected_verify(self.verify_expected, suite, q, bounds)
            failed = checks.failed_entries(call, report, want)
            result.add("%s q=%s" % (suite, q), reply, len(want), failed, call["op_s"])
        return result

    def _eval_pass(self, index: int, trace: bool) -> Pass:
        while len(self.planned) <= index:
            self.planned.append(next(self.sessions))
        picks = self.planned[index]
        items = [self.trees[i] for i in picks]
        calls = [["eval", "--q=" + it["q"], it["text"]] for it in items]
        reply = self.spawn(
            {
                "calls": calls,
                "trace": trace,
                "eval": [{"tree": it["tree"], "q": it["q"]} for it in items],
            }
        )
        failed = sum(
            checks.eval_failed(call, self.pool[i], ok)
            for call, i, ok in zip(reply["calls"], picks, reply["oracle"])
        )
        result = Pass()
        result.add("session", reply, len(calls), failed, [c["wall_s"] for c in reply["calls"]])
        return result


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _timing(passes: List[Pass], scale) -> Dict[str, float]:
    """Set-up time and throughput from, per slot, the median timed wall time
    over passes, and op latency percentiles; each time multiplied by
    scale(slot)."""
    slots = passes[0].slots
    ops = sum(s["ops"] for s in slots.values())
    median_wall = sum(
        statistics.median(p.slots[name]["wall_s"] * scale(p.slots[name]) for p in passes)
        for name in slots
    )
    latencies = [t * scale(s) for p in passes for s in p.slots.values() for t in s["op_s"]]
    return {
        "setup_s": statistics.median(
            s["setup_s"] * scale(s) for p in passes for s in p.slots.values()
        ),
        "ops_per_s": ops / median_wall,
        "op_p50_ms": 1e3 * percentile(latencies, 0.5),
        "op_p90_ms": 1e3 * percentile(latencies, 0.9),
    }


def end_to_end(passes: List[Pass], ok_share: float) -> Dict[str, tuple]:
    """The end-to-end metrics, and as "raw" the unscaled timings.

    On the 2-vCPU virtual machine of perfbench/notes.json, speed switches
    between states some tens of percent apart, over seconds to minutes and
    for every process alike.  Each worker therefore times a fixed
    calibration kernel (worker.kernel) around its calls, and set-up time
    and the *_ref metrics rescale that worker's times to a host on which
    the kernel takes KERNEL_REF_S.
    """
    ref = _timing(passes, lambda slot: KERNEL_REF_S / slot["kernel_s"])
    raw = _timing(passes, lambda slot: 1.0)
    raw["kernel_ms"] = 1e3 * statistics.median(
        s["kernel_s"] for p in passes for s in p.slots.values()
    )
    return {
        "setup_s": (ref["setup_s"], "s"),
        "ops_per_s_ref": (ref["ops_per_s"], "1/s"),
        "op_p50_ms_ref": (ref["op_p50_ms"], "ms"),
        "op_p90_ms_ref": (ref["op_p90_ms"], "ms"),
        "peak_rss_mb": (max(k for p in passes for k in p.rss_kb) / 1024.0, "MB"),
        "ok_share": (ok_share, "share"),
        "raw": raw,
    }


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: Pass, overhead_s: float, untraced_s: float) -> Dict[str, tuple]:
    """Per-layer metrics of one traced pass, summed over its processes."""
    import tracer

    out: Dict[str, tuple] = {}
    stats: Dict[str, List[float]] = {}
    count: Dict[str, int] = {}
    suites: Dict[str, List[float]] = {}
    caches: Dict[str, List[int]] = {}
    words: List[int] = []
    spans = 0
    for t in traced.traces:
        for name, (calls, self_s) in t["stats"].items():
            row = stats.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        for name, n in t["count"].items():
            count[name] = count.get(name, 0) + n
        for name, (wall, entries) in t["suites"].items():
            row = suites.setdefault(name, [0.0, 0])
            row[0] += wall
            row[1] += entries
        for name, info in t["caches"].items():
            caches[name] = [a + b for a, b in zip(caches.get(name, [0, 0, 0]), info)]
        words += t["out_words"]
        spans += len(t["spans"])
    for prefix, _, _ in tracer.LEAVES + tracer.SPANNED:
        calls, self_s = stats.get(prefix, (0, 0.0))
        out[prefix + ".calls"] = (calls, "count")
        out[prefix + ".self_s"] = (self_s, "s")
    mul_poly = count.get("mul_poly", 0)
    normalize = stats.get("coeff.normalize", (0, 0))[0]
    out["coeff.IntPoly.mul.small_share"] = (share(count.get("mul_small", 0), mul_poly), "share")
    out["coeff.IntPoly.gcd.trivial_share"] = (
        share(count.get("gcd_trivial", 0), stats.get("coeff.IntPoly.gcd", (0, 0))[0]),
        "share",
    )
    out["coeff.normalize.const_share"] = (share(count.get("normalize_const", 0), normalize), "share")
    out["coeff.normalize.den_q_q1_share"] = (
        share(count.get("normalize_den_q_q1", 0), normalize),
        "share",
    )
    out["expr.eval_free.out_words"] = (sum(words), "count")
    for label, p in (("p50", 0.5), ("p90", 0.9)):
        out["expr.eval_free.out_words_" + label] = (percentile(words, p) if words else 0, "count")
    out["expr.eval_free.out_words_max"] = (max(words, default=0), "count")
    for prefix, _, _ in tracer.CACHES:
        hits, misses, size = caches.get(prefix, (0, 0, 0))
        out[prefix + ".hit_ratio"] = (share(hits, hits + misses), "ratio")
        out[prefix + ".currsize"] = (size, "count")
    for suite in TRIO + tuple(ZERO_BOUNDS):
        wall, entries = suites.get(suite, (0.0, 0))
        out["suites.%s.wall_s" % suite] = (wall, "s")
        out["suites.%s.entries" % suite] = (entries, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_share"] = (share(overhead_s, untraced_s), "share")
    out["trace.spans"] = (spans, "count")
    return out


def write_spans(workload: str, seed: int, traced: Pass) -> str:
    path = os.path.join(WORK, "spans-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for t in traced.traces:
            fh.write(json.dumps(t["spans"]) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-symbolic", "verify-specialized", "eval-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "qheis", "cli.py")):
        print("error: no qheis sources under %s" % SRC, file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    bench.spawn({"calls": [], "trace": False})  # compile bytecode before timing set-up
    start = time.monotonic()
    untraced: List[Pass] = []
    traced: List[Pass] = []
    last = 0.0
    # another pass only when it is expected to end within --seconds
    while not untraced or time.monotonic() - start + last <= args.seconds:
        began = time.monotonic()
        untraced.append(bench.run_pass(len(untraced), trace=False))
        if args.trace:
            traced.append(bench.run_pass(len(traced), trace=True))
        last = time.monotonic() - began

    checked = untraced + traced
    attempted = sum(s["ops"] for p in checked for s in p.slots.values())
    failed = sum(s["failed"] for p in checked for s in p.slots.values())
    if args.trace:
        plain = statistics.median(p.wall_s for p in untraced)
        overhead = statistics.median(p.wall_s for p in traced) - plain
        metrics = per_layer(traced[0], overhead, plain)
        print("spans: %s" % write_spans(args.workload, args.seed, traced[0]))
        missing = sorted({m for t in traced[0].traces for m in t["missing"]})
        if missing:
            print("not traced (absent from the program): %s" % " ".join(missing))
    else:
        metrics = end_to_end(untraced, 1.0 - failed / attempted)
        raw = metrics.pop("raw")
        print("unscaled: " + " ".join("%s=%.4f" % kv for kv in raw.items()))
    print("workload=%s seed=%d passes=%d ops=%d failed=%d failed_share=%.6f"
          % (args.workload, args.seed, len(untraced), attempted, failed, failed / attempted))
    for name in untraced[0].slots:
        walls = ["%.3f" % p.slots[name]["wall_s"] for p in untraced]
        print("slot %-32s ops=%-5d wall_s=%s" % (name, untraced[0].slots[name]["ops"], " ".join(walls)))
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6f %s" % (name, value, unit))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
