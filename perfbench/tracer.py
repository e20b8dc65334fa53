"""Per-layer tracing for the traced runs, from outside the program.

`Tracer.install()` wraps public functions and methods of the qheis
modules: a method is replaced on its class under every name that refers
to it (so `IntPoly.__rmul__ = __mul__` is covered), and a module function
in every qheis module that imported it by name.  The hot `coeff` leaves
keep only call counts, self time and a few traffic counters; every other
wrapped function also records a span (name, start, end, parent).  A
function's self time is its duration minus the time of the wrapped calls
nested in it and of the tracer's own bookkeeping done for them.

Report entries mark the op boundaries of a verify call, and an eval call
is one op: ops become spans too, and spans that ran inside an op are
re-parented under it.  Targets a later program no longer has are skipped
and listed under "missing".
"""

from __future__ import annotations

import bisect
import sys
import time
from collections import Counter

# metric prefix, module, attribute path
LEAVES = (
    ("coeff.IntPoly.mul", "qheis.coeff", "IntPoly.__mul__"),
    ("coeff.IntPoly.gcd", "qheis.coeff", "IntPoly.gcd"),
    ("coeff.normalize", "qheis.coeff", "_normalize"),
    ("coeff.RationalFunction.render", "qheis.coeff", "RationalFunction.render"),
)
SPANNED = (
    ("cli.main", "qheis.cli", "main"),
    ("suites.run_suite", "qheis.suites", "run_suite"),
    ("reports.Report.to_json", "qheis.reports", "Report.to_json"),
    ("expr.parse", "qheis.expr", "parse"),
    ("expr.eval_free", "qheis.expr", "eval_free"),
    ("freealg.FreeElement.mul", "qheis.freealg", "FreeElement.__mul__"),
    ("words.bracketing", "qheis.words", "bracketing"),
    ("heis.normal_form", "qheis.heis", "normal_form"),
    ("heis.NormalElement.mul", "qheis.heis", "NormalElement.__mul__"),
    ("heis.to_lie_power_basis", "qheis.heis", "to_lie_power_basis"),
    ("heis.from_lie_power_basis", "qheis.heis", "from_lie_power_basis"),
    ("lie.membership_generic", "qheis.lie", "membership_generic"),
    ("lie.membership_zero", "qheis.lie", "membership_zero"),
    ("lie.table1_sides", "qheis.lie", "table1_sides"),
    ("lie.bigcomrel_sides", "qheis.lie", "bigcomrel_sides"),
)
CACHES = (
    ("heis.word_nf", "qheis.heis", "_word_normal_form"),
    ("heis.an_bk", "qheis.heis", "_an_bk_expansion"),
    ("heis.comm_power", "qheis.heis", "comm_power"),
    ("heis.lie_power_vector", "qheis.heis", "lie_power_vector"),
    ("heis.bracketed_word", "qheis.heis", "bracketed_word"),
    ("lie.expand_gen_basis", "qheis.lie", "expand_gen_basis"),
    ("lie.brmn_closed", "qheis.lie", "brmn_closed"),
    ("coeff.gauss_binomial_poly", "qheis.coeff", "_gauss_binomial_poly"),
    ("coeff.q_int_symbolic", "qheis.coeff", "_q_int_symbolic"),
)
SMALL = 16  # a product is small when both operands have fewer coefficients


def is_q_q1_power(coeffs) -> bool:
    """Whether the polynomial with these coefficients (lowest first) is
    c * q^a * (q - 1)^b."""
    cs = list(coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
    while len(cs) > 1 and sum(cs) == 0:
        high = cs[::-1]  # synthetic division by (q - 1), highest first
        quotient, acc = [], 0
        for c in high[:-1]:
            acc += c
            quotient.append(acc)
        cs = quotient[::-1]
    return len(cs) == 1


def _lookup(module: str, path: str):
    owner = sys.modules.get(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None, None
    return owner, vars(owner).get(name)


class Tracer:
    def __init__(self):
        self.child = [0.0]  # time of wrapped callees, per open call
        self.open = [(-1, "")]  # (span id, name) of open spanned calls
        self.spans = []  # span id -> (name, start, end, parent id)
        self.stats = {}  # metric prefix -> [calls, self seconds]
        self.count = Counter()  # traffic counters
        self.dens = Counter()  # normalize denominators by coefficients
        self.out_words = []  # words of each top-level eval_free result
        self.suites = {}  # suite -> [wall seconds, entries]
        self.entry_stamps = []  # creation times of report entries, from the worker
        self.missing = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        probes = {
            "coeff.IntPoly.mul": self._probe_mul,
            "coeff.IntPoly.gcd": self._probe_gcd,
            "coeff.normalize": self._probe_normalize,
            "expr.eval_free": self._probe_eval_free,
            "suites.run_suite": self._probe_run_suite,
        }
        for targets, spanned in ((LEAVES, False), (SPANNED, True)):
            for prefix, module, path in targets:
                owner, raw = _lookup(module, path)
                if raw is None:
                    self.missing.append(prefix)
                    continue
                self.stats[prefix] = [0, 0.0]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(prefix, fn, spanned, probes.get(prefix))
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                if isinstance(owner, type):
                    self._replace(owner, raw, wrapped)
                else:
                    for mod in list(sys.modules.values()):
                        if getattr(mod, "__name__", "").startswith("qheis"):
                            self._replace(mod, raw, wrapped)

    def _replace(self, owner, old, new) -> None:
        for key, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, key, new)
                self._undo.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo = []

    def _wrap(self, prefix, fn, spanned, probe):
        stat = self.stats[prefix]
        child, open_, spans = self.child, self.open, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if spanned:
                sid = len(spans)
                spans.append(None)
                parent = open_[-1][0]
                open_.append((sid, prefix))
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child.pop()
                stat[0] += 1
                stat[1] += end - start - inner
                if spanned:
                    open_.pop()
                    spans[sid] = (prefix, start, end, parent)
            if probe is not None:
                probe(args, result, end - start)
            child[-1] += clock() - start
            return result

        return wrapper

    # -- traffic probes ---------------------------------------------------

    def _probe_mul(self, args, result, dt) -> None:
        other = args[1]
        if not isinstance(other, int):
            self.count["mul_poly"] += 1
            if len(args[0].coeffs) < SMALL and len(other.coeffs) < SMALL:
                self.count["mul_small"] += 1

    def _probe_gcd(self, args, result, dt) -> None:
        if result.coeffs == (1,):
            self.count["gcd_trivial"] += 1

    def _probe_normalize(self, args, result, dt) -> None:
        num, den = args
        if len(num.coeffs) <= 1 and len(den.coeffs) <= 1:
            self.count["normalize_const"] += 1
        self.dens[den.coeffs] += 1

    def _probe_eval_free(self, args, result, dt) -> None:
        if self.open[-1][1] != "expr.eval_free":
            self.out_words.append(len(result.terms))

    def _probe_run_suite(self, args, result, dt) -> None:
        row = self.suites.setdefault(args[0].suite, [0.0, 0])
        row[0] += dt
        row[1] += len(result.entries)

    # -- report -----------------------------------------------------------

    def _op_spans(self) -> None:
        """Add one span per op and re-parent the spans that ran in it."""
        spans = self.spans
        ops = []
        for sid, (name, start, end, parent) in enumerate(list(spans)):
            if name == "cli.main":
                inside = [t for t in self.entry_stamps if start <= t <= end]
                bounds = [start] + inside if inside else [start, end]
                for a, b in zip(bounds, bounds[1:]):
                    ops.append((a, b, len(spans)))
                    spans.append(("op", a, b, sid))
        ops.sort()
        starts = [a for a, _, _ in ops]
        for sid, (name, start, end, parent) in enumerate(spans):
            if name == "op" or parent < 0 or spans[parent][0] == "op":
                continue
            if spans[parent][0] not in ("cli.main", "suites.run_suite"):
                continue
            i = bisect.bisect_right(starts, start) - 1
            if i >= 0 and end <= ops[i][1]:
                spans[sid] = (name, start, end, ops[i][2])

    def report(self) -> dict:
        self._op_spans()
        caches = {}
        for prefix, module, attr in CACHES:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None or not hasattr(fn, "cache_info"):
                self.missing.append(prefix)
                continue
            info = fn.cache_info()
            caches[prefix] = [info.hits, info.misses, info.currsize]
        dens_q_q1 = sum(n for cs, n in self.dens.items() if is_q_q1_power(cs))
        return {
            "stats": self.stats,
            "count": dict(self.count, normalize_den_q_q1=dens_q_q1),
            "out_words": self.out_words,
            "suites": self.suites,
            "caches": caches,
            "spans": self.spans,
            "missing": self.missing,
        }
