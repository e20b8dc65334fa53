"""The named verification suites behind `qheis verify`.

Each suite sweeps one cluster of identities over bounded index ranges and
returns a Report with one entry per tuple checked.  A suite whose
hypotheses exclude the requested q marks every tuple skipped-degenerate
instead of failing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .coeff import (
    IntPoly,
    QValue,
    RF_ONE,
    RationalFunction,
    q_binomial,
    q_factorial,
    q_int,
)
from .freealg import FreeElement, eval_monomial, passes_lie_necessary
from .heis import (
    NormalElement,
    REORDER_KINDS,
    adad_sides,
    anbn_expand,
    anbn_via_gauss,
    bnan_expand,
    bracketed_word,
    fban_sides,
    from_lie_power_basis,
    nf_word,
    reorder_sides,
    shift_poly_sides,
    to_lie_power_basis,
)
from .lie import (
    AlphaBar,
    BetaBar,
    BrBA,
    GammaBar,
    beta_closed_sides,
    beta_gamma_sum_sides,
    bia2_b2ak_sides,
    bigcomrel_sides,
    brmn_closed,
    brmn_printed,
    expand_gen_basis,
    f_r,
    fer2_sides,
    fer_sides,
    idlem5b_sides,
    idlem_sides,
    independence_counts,
    membership_generic,
    membership_zero,
    nilpotent_generic_case,
    notanbm_sides,
    sandwiched_f_r,
    table1_cells,
    table1_rhs,
    table1_sides,
    table2_sides,
)
from .reports import FAIL, PASS, SKIPPED, Entry, Report
from .words import ALPHABET, bracketing, enumerate_regular

Work = List[Tuple[Tuple, Callable[[], Entry]]]


def _compare(key: Tuple, lhs, rhs) -> Entry:
    text = lhs.render()
    if lhs == rhs:  # equal canonical forms render alike
        return Entry(key, PASS, text, text)
    return Entry(key, FAIL, text, rhs.render(), (lhs - rhs).render())


def _boolean(key: Tuple, ok: bool, lhs: str = "", rhs: str = "") -> Entry:
    return Entry(key, PASS if ok else FAIL, lhs, rhs)


def _execute(work: Work, jobs: int) -> List[Entry]:
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda item: item[1](), work))
    return [thunk() for _, thunk in work]


def _finish(rep: Report, work: Work, jobs: int, skip: bool) -> Report:
    if skip:
        rep.entries = [Entry(key, SKIPPED) for key, _ in work]
    else:
        rep.entries = _execute(work, jobs)
    return rep.sort()


# ---------------------------------------------------------------------------
# scalar combinatorics
# ---------------------------------------------------------------------------


def _suite_qcomb(q: QValue, bounds, jobs) -> Report:
    rep = Report("qcomb", q.render(), bounds)
    N = bounds["n"]
    z = q.scalar()
    work: Work = []
    for n in range(N + 1):
        def recur(n=n):
            lhs = q_int(n, z)
            rhs = q_int(n - 1, z) * z + (RF_ONE if n >= 1 else RF_ONE * 0)
            return _compare(("int-recurrence", n), lhs, rhs)
        work.append((("int-recurrence", n), recur))

        def fact(n=n):
            lhs = q_factorial(n, z)
            rhs = q_factorial(n - 1, z) * q_int(n, z) if n >= 1 else RF_ONE
            return _compare(("factorial-recurrence", n), lhs, rhs)
        work.append((("factorial-recurrence", n), fact))
        for i in range(n + 1):
            def sym(n=n, i=i):
                return _compare(
                    ("binomial-symmetry", n, i),
                    q_binomial(n, i, z),
                    q_binomial(n, n - i, z),
                )
            work.append((("binomial-symmetry", n, i), sym))
            if 1 <= i <= n - 1:
                def pascal(n=n, i=i):
                    lhs = q_binomial(n, i, z)
                    rhs = q_binomial(n - 1, i - 1, z) + z**i * q_binomial(n - 1, i, z)
                    return _compare(("binomial-pascal", n, i), lhs, rhs)
                work.append((("binomial-pascal", n, i), pascal))
            if q.is_zero:
                work.append(
                    ((("binomial-inverse", n, i)), lambda n=n, i=i: Entry(
                        ("binomial-inverse", n, i), SKIPPED))
                )
            else:
                def inverse(n=n, i=i):
                    zi = z.inv()
                    lhs = q_binomial(n, i, zi)
                    rhs = z ** (-i * (n - i)) * q_binomial(n, i, z)
                    return _compare(("binomial-inverse", n, i), lhs, rhs)
                work.append((("binomial-inverse", n, i), inverse))
    return _finish(rep, work, jobs, skip=False)


# ---------------------------------------------------------------------------
# H(q) identity sweeps
# ---------------------------------------------------------------------------


def _suite_reorder(q: QValue, bounds, jobs) -> Report:
    rep = Report("reorder", q.render(), bounds)
    work: Work = []
    for kind in REORDER_KINDS:
        needs_inverse = kind in ("BA^n", "B^nA")
        for n in range(1, bounds["n"] + 1):
            key = (kind, n)
            if needs_inverse and q.is_zero:
                work.append((key, lambda key=key: Entry(key, SKIPPED)))
            else:
                def check(key=key, kind=kind, n=n):
                    return _compare(key, *reorder_sides(kind, n, q))
                work.append((key, check))
    return _finish(rep, work, jobs, skip=False)


def _suite_shift(q: QValue, bounds, jobs) -> Report:
    rep = Report("shift", q.render(), bounds)
    work: Work = []
    for length in range(1, bounds["plen"] + 1):
        for letters in itertools.product(ALPHABET, repeat=length):
            word = "".join(letters)
            for n in range(bounds["n"] + 1):
                key = (word, n)
                def check(word=word, n=n, key=key):
                    return _compare(key, *shift_poly_sides(FreeElement.word(word), n, q))
                work.append((key, check))
    return _finish(rep, work, jobs, skip=q.is_zero)


def _suite_bnan_anbn(q: QValue, bounds, jobs) -> Report:
    rep = Report("bnan-anbn", q.render(), bounds)
    work: Work = []
    for n in range(bounds["n"] + 1):
        def c1(n=n):
            return _compare(("BnAn", n), bnan_expand(n, q), nf_word("B" * n + "A" * n, q))
        def c2(n=n):
            return _compare(("AnBn", n), anbn_expand(n, q), nf_word("A" * n + "B" * n, q))
        def c3(n=n):
            return _compare(("AnBn-gauss", n), anbn_via_gauss(n, q), nf_word("A" * n + "B" * n, q))
        work.append((("BnAn", n), c1))
        work.append((("AnBn", n), c2))
        work.append((("AnBn-gauss", n), c3))
    return _finish(rep, work, jobs, skip=q.is_zero or q.is_one)


def _suite_adad(q: QValue, bounds, jobs) -> Report:
    rep = Report("adad", q.render(), bounds)
    work: Work = []
    for m in range(bounds["m"] + 1):
        for n in range(bounds["n"] + 1):
            def check1(m=m, n=n):
                (l1, r1), _ = adad_sides(m, n, q)
                return _compare(("ad-brBA", m, n), l1, r1)
            def check2(m=m, n=n):
                _, (l2, r2) = adad_sides(m, n, q)
                return _compare(("ad-B", m, n), l2, r2)
            work.append((("ad-brBA", m, n), check1))
            work.append((("ad-B", m, n), check2))
    return _finish(rep, work, jobs, skip=False)


def _suite_fban(q: QValue, bounds, jobs) -> Report:
    rep = Report("fban", q.render(), bounds)
    work: Work = []
    for n in range(1, bounds["n"] + 1):
        def check1(n=n):
            (l1, r1), _ = fban_sides(n, q)
            return _compare(("brBAn", n), l1, r1)
        def check2(n=n):
            _, (l2, r2) = fban_sides(n, q)
            return _compare(("brBnA", n), l2, r2)
        work.append((("brBAn", n), check1))
        work.append((("brBnA", n), check2))
    return _finish(rep, work, jobs, skip=False)


# ---------------------------------------------------------------------------
# generic-q structure suites
# ---------------------------------------------------------------------------


def _suite_beta_closed(q: QValue, bounds, jobs) -> Report:
    rep = Report("beta-closed", q.render(), bounds)
    work: Work = []
    K, L = bounds["k"], bounds["l"]
    for k in range(K + 1):
        for l in range(1, L + 1):
            for kind in ("A", "B"):
                key = (kind, k, l)
                def check(kind=kind, k=k, l=l, key=key):
                    return _compare(key, *beta_closed_sides(kind, k, l, q))
                work.append((key, check))
        key = ("G", k, "printed")
        def checkg(k=k, key=key):
            return _compare(key, *beta_closed_sides("G", k, 1, q, derived=False))
        work.append((key, checkg))
        key2 = ("G", k, "derived")
        def checkg2(k=k, key=key2):
            return _compare(key, *beta_closed_sides("G", k, 1, q, derived=True))
        work.append((key2, checkg2))
        key3 = ("Gsum", k, "printed")
        def checks(k=k, key=key3):
            return _compare(key, *beta_gamma_sum_sides(k, q, derived=False))
        work.append((key3, checks))
        key4 = ("Gsum", k, "derived")
        def checks2(k=k, key=key4):
            return _compare(key, *beta_gamma_sum_sides(k, q, derived=True))
        work.append((key4, checks2))
    return _finish(rep, work, jobs, skip=q.is_degenerate)


def _suite_table1(q: QValue, bounds, jobs) -> Report:
    rep = Report("table1", q.render(), bounds)
    work = []
    for name, rv, cv in table1_cells(bounds["idx"]):
        key = (name, rv.render(), cv.render())
        # one commutator per cell; the derived twin reports only when the
        # printed form fails, and reuses the printed check's lhs
        def check(rv=rv, cv=cv, key=key):
            lhs, rhs = table1_sides(rv, cv, q, derived=False)
            printed = _compare(key, lhs, rhs)
            if printed.status == PASS:
                return [printed]
            rhs_d = table1_rhs(rv, cv, q, derived=True)
            return [printed, _compare(key + ("derived",), lhs, rhs_d)]
        work.append((key, check))
    if q.is_degenerate:
        rep.entries = [Entry(key, SKIPPED) for key, _ in work]
    else:
        rep.entries = [e for entries in _execute(work, jobs) for e in entries]
    return rep.sort()


def _suite_bigcomrel(q: QValue, bounds, jobs) -> Report:
    rep = Report("bigcomrel", q.render(), bounds)
    work: Work = []
    for k in range(bounds["k"] + 1):
        for l in range(1, bounds["l"] + 1):
            for m in range(bounds["m"] + 1):
                for n in range(1, bounds["n"] + 1):
                    case = "l>n" if l > n else ("l<n" if l < n else "l=n")
                    key = (case, k, l, m, n)
                    def check(k=k, l=l, m=m, n=n, key=key):
                        return _compare(key, *bigcomrel_sides(k, l, m, n, q))
                    work.append((key, check))
    return _finish(rep, work, jobs, skip=q.is_degenerate)


def _suite_table2(q: QValue, bounds, jobs) -> Report:
    rep = Report("table2", q.render(), bounds)
    work: Work = []
    cols = [BrBA()]
    cols += [GammaBar(k) for k in range(bounds["kl"] + 1)]
    cols += [
        AlphaBar(k, l)
        for k in range(bounds["kl"] + 1)
        for l in range(1, bounds["kl"] + 1)
    ]
    cols += [
        BetaBar(k, l)
        for k in range(bounds["kl"] + 1)
        for l in range(1, bounds["kl"] + 1)
    ]
    for e in range(2, bounds["mn"] + 1):
        for letter in ("A", "B"):
            row = (letter, e)
            for col in cols:
                key = ("%s^%d" % (letter, e), col.render())
                def check(row=row, col=col, key=key):
                    kind, lhs, rhs = table2_sides(row, col, q)
                    if kind == "membership":
                        ok = membership_generic(lhs)
                        return Entry(
                            key + ("membership",),
                            PASS if ok else FAIL,
                            lhs.render(),
                            "member of L(q)",
                        )
                    status_key = key + (kind,)
                    if lhs == rhs:
                        return Entry(status_key, PASS, lhs.render(), rhs.render())
                    return Entry(status_key, FAIL, lhs.render(), rhs.render(), (lhs - rhs).render())
                work.append((key, check))
    return _finish(rep, work, jobs, skip=q.is_degenerate)


def _suite_ideal_generic(q: QValue, bounds, jobs) -> Report:
    rep = Report("ideal-generic", q.render(), bounds)
    work: Work = []
    from .heis import commutator as h_commutator

    for e in range(2, bounds["exp"] + 1):
        for k in range(bounds["k"] + 1):
            for l in range(1, bounds["l"] + 1):
                key1 = ("[A^n,Bbar]", e, k, l)
                def check1(e=e, k=k, l=l, key=key1):
                    lhs = h_commutator(
                        NormalElement.monomial(0, e, q), expand_gen_basis(BetaBar(k, l), q)
                    )
                    return _boolean(key, membership_generic(lhs), lhs.render(), "in L(q)")
                work.append((key1, check1))
                key2 = ("[B^m,Abar]", e, k, l)
                def check2(e=e, k=k, l=l, key=key2):
                    lhs = h_commutator(
                        NormalElement.monomial(e, 0, q), expand_gen_basis(AlphaBar(k, l), q)
                    )
                    return _boolean(key, membership_generic(lhs), lhs.render(), "in L(q)")
                work.append((key2, check2))
    return _finish(rep, work, jobs, skip=q.is_degenerate)


def _suite_nilpotent_generic(q: QValue, bounds, jobs) -> Report:
    rep = Report("nilpotent-generic", q.render(), bounds)
    work: Work = []
    for m in range(2, bounds["mn"] + 1):
        for n in range(2, bounds["mn"] + 1):
            key = ("[B^m,A^n]", m, n)
            def check(m=m, n=n, key=key):
                member, support_ok, _ = nilpotent_generic_case(m, n, q)
                return _boolean(
                    key,
                    member and support_ok,
                    "membership=%s" % member,
                    "case-span support=%s" % support_ok,
                )
            work.append((key, check))
    return _finish(rep, work, jobs, skip=q.is_degenerate)


def _random_element(rng: random.Random, q: QValue, support: int, nterms: int = 5) -> NormalElement:
    acc = NormalElement.zero(q)
    for _ in range(nterms):
        m = rng.randrange(support + 1)
        n = rng.randrange(support + 1)
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))]
        c = RationalFunction(IntPoly(coeffs))
        if c.is_zero():
            c = RF_ONE
        acc = acc + NormalElement.monomial(m, n, q, c)
    return acc


def _suite_grad_roundtrip(q: QValue, bounds, jobs) -> Report:
    rep = Report("grad-basis-roundtrip", q.render(), bounds)
    work: Work = []
    rng = random.Random(bounds.get("seed", 20250809))
    samples = [
        _random_element(rng, q, bounds["support"]) for _ in range(bounds["count"])
    ]
    for i, x in enumerate(samples):
        key = ("roundtrip", i)
        def check(x=x, key=key):
            back = from_lie_power_basis(to_lie_power_basis(x))
            return _boolean(key, back == x, x.render()[:120], "exact round-trip")
        work.append((key, check))
    return _finish(rep, work, jobs, skip=q.is_zero or q.is_one)


def _suite_independence(q: QValue, bounds, jobs) -> Report:
    rep = Report("independence", q.render(), bounds)
    work: Work = []
    D = bounds["bound"]
    if q.is_zero:
        for mode in ("zero", "zero-extended"):
            key = (mode, D)
            def check(mode=mode, key=key):
                count, rank = independence_counts(mode, D)
                return _boolean(key, count == rank, "%d vectors" % count, "rank %d" % rank)
            work.append((key, check))
        skip = False
    else:
        key = ("generic", D)
        def check(key=key):
            count, rank = independence_counts("generic", D, q)
            return _boolean(key, count == rank, "%d vectors" % count, "rank %d" % rank)
        work.append((key, check))
        skip = q.is_degenerate
    return _finish(rep, work, jobs, skip=skip)


# ---------------------------------------------------------------------------
# q = 0 suites
# ---------------------------------------------------------------------------


def _suite_zero_basis(q: QValue, bounds, jobs) -> Report:
    rep = Report("zero-basis", q.render(), bounds)
    work: Work = []
    skip = not q.is_zero
    for m in range(1, bounds["mn"] + 1):
        for n in range(1, bounds["mn"] + 1):
            key = ("BmAn-printed", m, n)
            def check(m=m, n=n, key=key):
                return _compare(key, bracketed_word("B" * m + "A" * n, q), brmn_printed(m, n))
            work.append((key, check))
            key2 = ("BmAn-derived", m, n)
            def check2(m=m, n=n, key=key2):
                return _compare(key, bracketed_word("B" * m + "A" * n, q), brmn_closed(m, n))
            work.append((key2, check2))
    for n in range(1, bounds["fer"] + 1):
        for m in range(1, bounds["fer"] + 1):
            key = ("AnBm", n, m)
            def check(n=n, m=m, key=key):
                return _compare(key, *fer_sides(n, m))
            work.append((key, check))
    for idx in range(4, bounds["idx"] + 1):
        key = ("notAnBm-1", idx)
        def check(idx=idx, key=key):
            return _compare(key, *notanbm_sides(1, idx))
        work.append((key, check))
        key2 = ("notAnBm-2-printed", idx)
        def check2(idx=idx, key=key2):
            return _compare(key, *notanbm_sides(2, idx, derived=False))
        work.append((key2, check2))
        key3 = ("notAnBm-2-derived", idx)
        def check3(idx=idx, key=key3):
            return _compare(key, *notanbm_sides(2, idx, derived=True))
        work.append((key3, check3))
    return _finish(rep, work, jobs, skip=skip)


def _suite_zero_ideal(q: QValue, bounds, jobs) -> Report:
    rep = Report("zero-ideal", q.render(), bounds)
    work: Work = []
    skip = not q.is_zero
    for m in range(1, bounds["mn"] + 1):
        for n in range(1, bounds["mn"] + 1):
            key = ("fer2-printed", m, n)
            def check(m=m, n=n, key=key):
                return _compare(key, *fer2_sides(m, n, derived=False))
            work.append((key, check))
            key2 = ("fer2-derived", m, n)
            def check2(m=m, n=n, key=key2):
                return _compare(key, *fer2_sides(m, n, derived=True))
            work.append((key2, check2))
    for eqno in (1, 2, 3, 4):
        for idx in range(4, bounds["idx"] + 1):
            key = ("idlem%d-printed" % eqno, idx)
            def check(eqno=eqno, idx=idx, key=key):
                return _compare(key, *idlem_sides(eqno, idx, derived=False))
            work.append((key, check))
            key2 = ("idlem%d-derived" % eqno, idx)
            def check2(eqno=eqno, idx=idx, key=key2):
                return _compare(key, *idlem_sides(eqno, idx, derived=True))
            work.append((key2, check2))
    for i in range(4, bounds["idx"] + 1):
        for l in range(4, bounds["idx"] + 1):
            key = ("idlem5", i, l)
            def check(i=i, l=l, key=key):
                return _compare(key, *idlem_sides(5, i, l))
            work.append((key, check))
            key2 = ("idlem5b", i, l)
            def check2(i=i, l=l, key=key2):
                return _compare(key, *idlem5b_sides(i, l))
            work.append((key2, check2))
    r = range(4, bounds["cor"] + 1)
    for i in r:
        for j in r:
            for l in r:
                key = ("zeroId2-BlA2", i, j, l)
                def check(i=i, j=j, l=l, key=key):
                    from .heis import commutator as h_commutator

                    lhs = h_commutator(
                        bracketed_word("B" * i + "A" * j, q),
                        NormalElement.monomial(l, 2, q),
                    )
                    return _boolean(key, membership_zero(lhs), lhs.render()[:120], "in L(0)")
                work.append((key, check))
                key2 = ("zeroId2-B2Ak", i, j, l)
                def check2(i=i, j=j, k=l, key=key2):
                    from .heis import commutator as h_commutator

                    lhs = h_commutator(
                        bracketed_word("B" * i + "A" * j, q),
                        NormalElement.monomial(2, k, q),
                    )
                    return _boolean(key, membership_zero(lhs), lhs.render()[:120], "in L(0)")
                work.append((key2, check2))
    return _finish(rep, work, jobs, skip=skip)


def _suite_zero_nilpotent(q: QValue, bounds, jobs) -> Report:
    rep = Report("zero-nilpotent", q.render(), bounds)
    work: Work = []
    skip = not q.is_zero
    for r in range(1, bounds["r"] + 1):
        key = ("f_r", r)
        def check(r=r, key=key):
            return _boolean(key, membership_zero(f_r(r)), "B^%d A^%d - I" % (r, r), "in L(0)")
        work.append((key, check))
    rng = range(1, bounds["r"] + 1)
    for x in rng:
        for r in rng:
            for y in rng:
                key = ("BxfrAy", x, r, y)
                def check(x=x, r=r, y=y, key=key):
                    return _boolean(
                        key, membership_zero(sandwiched_f_r(x, r, y)),
                        "B^%d f_%d A^%d" % (x, r, y), "in L(0)",
                    )
                work.append((key, check))
    for i in range(4, bounds["idx"] + 1):
        for k in range(4, bounds["idx"] + 1):
            key = ("[BiA2,B2Ak]", i, k)
            def check(i=i, k=k, key=key):
                lhs, rhs = bia2_b2ak_sides(i, k)
                if lhs != rhs:
                    return Entry(key, FAIL, lhs.render(), rhs.render(), (lhs - rhs).render())
                return _boolean(key, membership_zero(lhs), lhs.render()[:120], "closed form + in L(0)")
            work.append((key, check))
    return _finish(rep, work, jobs, skip=skip)


# ---------------------------------------------------------------------------
# free-algebra suite
# ---------------------------------------------------------------------------


def _necklace_count(n: int) -> int:
    def mobius(d: int) -> int:
        out, x, p = 1, d, 2
        while p * p <= x:
            if x % p == 0:
                x //= p
                if x % p == 0:
                    return 0
                out = -out
            p += 1
        if x > 1:
            out = -out
        return out

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * 2 ** (n // d)
    return total // n


def _suite_theta_lie(q: QValue, bounds, jobs) -> Report:
    rep = Report("theta-lie", q.render(), bounds)
    work: Work = []
    words = enumerate_regular(bounds["len"])
    by_len: Dict[int, int] = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    for L in range(1, bounds["len"] + 1):
        key = ("regular-count", L)
        def check(L=L, key=key):
            return _boolean(
                key,
                by_len.get(L, 0) == _necklace_count(L),
                "%d regular words" % by_len.get(L, 0),
                "%d aperiodic necklaces" % _necklace_count(L),
            )
        work.append((key, check))
    for w in words:
        key = ("lie-necessary", w)
        def check(w=w, key=key):
            return _boolean(key, passes_lie_necessary(eval_monomial(bracketing(w))), "<%s>" % w)
        work.append((key, check))
    key = ("defining-element-not-lie",)
    def check_def(key=key):
        x = (
            FreeElement.word("AB")
            - FreeElement.word("BA", q.scalar())
            - FreeElement.one()
        )
        return _boolean(key, not passes_lie_necessary(x), "AB - qBA - I", "theta(f) != -f")
    work.append((key, check_def))
    return _finish(rep, work, jobs, skip=False)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass
class SuiteConfig:
    suite: str
    q: QValue
    bounds: Dict[str, int] = field(default_factory=dict)
    parallelism: int = 1

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(
                "unknown suite %r (choose from %s)" % (self.suite, ", ".join(sorted(SUITES)))
            )
        spec = SUITES[self.suite]
        merged = dict(spec.default_bounds)
        for k, v in self.bounds.items():
            if k not in merged:
                raise ValueError(
                    "suite %s has no bound %r (valid: %s)"
                    % (self.suite, k, ", ".join(sorted(merged)))
                )
            if v < 0:
                raise ValueError("bound %s must be >= 0" % k)
            merged[k] = v
        self.bounds = merged


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    run: Callable[[QValue, Dict[str, int], int], Report]
    default_bounds: Dict[str, int]
    doc: str


SUITES: Dict[str, SuiteSpec] = {
    s.name: s
    for s in [
        SuiteSpec("qcomb", _suite_qcomb, {"n": 8}, "q-integer/factorial/binomial identities"),
        SuiteSpec("reorder", _suite_reorder, {"n": 8}, "the four reordering formulas"),
        SuiteSpec("shift", _suite_shift, {"plen": 5, "n": 4}, "P(B,A)[A,B]^n shift identity"),
        SuiteSpec("bnan-anbn", _suite_bnan_anbn, {"n": 8}, "B^nA^n / A^nB^n power-of-[A,B] expansions"),
        SuiteSpec("adad", _suite_adad, {"m": 8, "n": 8}, "adjoint images of B^mA^n"),
        SuiteSpec("fban", _suite_fban, {"n": 8}, "<BA^n> and <B^nA> closed forms"),
        SuiteSpec("beta-closed", _suite_beta_closed, {"k": 4, "l": 4}, "beta generator closed forms"),
        SuiteSpec("table1", _suite_table1, {"idx": 3}, "the commutation table of L(q)"),
        SuiteSpec("bigcomrel", _suite_bigcomrel, {"k": 3, "l": 3, "m": 3, "n": 3}, "[Abar,Bbar] with c_i coefficients"),
        SuiteSpec("table2", _suite_table2, {"mn": 4, "kl": 3}, "Lie-ideal table for A^n, B^m rows"),
        SuiteSpec("ideal-generic", _suite_ideal_generic, {"exp": 4, "k": 3, "l": 3}, "ideal-lemma membership cells"),
        SuiteSpec("nilpotent-generic", _suite_nilpotent_generic, {"mn": 5}, "[B^m,A^n] in L(q) with case spans"),
        SuiteSpec("grad-basis-roundtrip", _suite_grad_roundtrip, {"count": 200, "support": 8, "seed": 20250809}, "[A,B]-power basis round-trips"),
        SuiteSpec("independence", _suite_independence, {"bound": 6}, "rank checks for the claimed bases"),
        SuiteSpec("zero-basis", _suite_zero_basis, {"mn": 6, "fer": 8, "idx": 7}, "q=0 expansions and eliminations"),
        SuiteSpec("zero-ideal", _suite_zero_ideal, {"mn": 6, "idx": 7, "cor": 6}, "q=0 bracket identities and memberships"),
        SuiteSpec("zero-nilpotent", _suite_zero_nilpotent, {"r": 4, "idx": 7}, "q=0 nilpotency witnesses"),
        SuiteSpec("theta-lie", _suite_theta_lie, {"len": 10}, "theta criterion and regular-word counts"),
    ]
}


def run_suite(cfg: SuiteConfig) -> Report:
    spec = SUITES[cfg.suite]
    return spec.run(cfg.q, cfg.bounds, cfg.parallelism)
