"""The named verification suites behind `qheis verify`.

Each suite sweeps one cluster of identities over bounded index ranges and
returns a Report with one entry per tuple checked.  A suite is declared as
data: a generator ``(q, bounds) -> items`` plus a `SuiteSpec` record, and a
`SuiteConfig` record checks the bounds of a run against it.  Each item is
a ``(key, fn, args)`` triple; ``fn`` is a module-level function and
``fn(key, *args)`` returns the Entry for ``key`` (the table1 check returns
a list: the printed cell, and its derived twin when the printed one
fails).  ``fn is None`` marks a key skipped-degenerate at this q.  A suite
whose hypotheses exclude the requested q has a `SuiteSpec.skip` predicate
that marks every key skipped-degenerate instead of failing.

A printed closed form and its derived correction are two items whose
``derived`` argument differs.

`theta-lie` works in the free algebra on A, B, not in H(q), on the word
dicts of `words`: each <w> must be a Lie polynomial, and a few controls and
the defining element AB - qBA - I must not be.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .coeff import (
    IntPoly,
    QValue,
    RF_ONE,
    RationalFunction,
    Record,
    add_terms,
    gauss_terms,
    q_binomial,
    q_factorial,
    q_int,
    q_laurent,
)
from .heis import (
    NormalElement,
    REORDER_KINDS,
    adad_sides,
    anbn_expand,
    anbn_via_gauss,
    bnan_expand,
    bracketed_word,
    commutator,
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
from .words import ALPHABET, bracket_expansion, enumerate_regular, is_lie

Item = Tuple[Tuple, Optional[Callable[..., Any]], Tuple]
Items = Iterator[Item]


# ---------------------------------------------------------------------------
# checks: fn(key, *args) -> Entry, or a list of entries
# ---------------------------------------------------------------------------


def _compare(key: Tuple, lhs, rhs) -> Entry:
    text = lhs.render()
    if lhs == rhs:  # equal canonical forms render alike
        return Entry(key, PASS, text, text)
    return Entry(key, FAIL, text, rhs.render(), (lhs - rhs).render())


def _boolean(key: Tuple, ok: bool, lhs: str = "", rhs: str = "") -> Entry:
    return Entry(key, PASS if ok else FAIL, lhs, rhs)


def _sides(key: Tuple, sides: Callable, *args) -> Entry:
    """Compare the (lhs, rhs) pair that ``sides(*args)`` returns."""
    return _compare(key, *sides(*args))


def _two_sides(key: Tuple, key2: Tuple, sides: Callable, *args) -> List[Entry]:
    """Compare the two (lhs, rhs) pairs that ``sides(*args)`` returns, under
    key and key2."""
    first, second = sides(*args)
    return [_compare(key, *first), _compare(key2, *second)]


def _pair(key: Tuple, lhs: Callable, lhs_args: Tuple, rhs: Callable, rhs_args: Tuple) -> Entry:
    return _compare(key, lhs(*lhs_args), rhs(*rhs_args))


def _int_recurrence(key: Tuple, n: int, z: RationalFunction) -> Entry:
    return _compare(key, q_int(n, z), q_int(n - 1, z) * z + (RF_ONE if n >= 1 else RF_ONE * 0))


def _factorial_recurrence(key: Tuple, n: int, z: RationalFunction) -> Entry:
    lhs = q_factorial(n, z)
    return _compare(key, lhs, q_factorial(n - 1, z) * q_int(n, z) if n >= 1 else RF_ONE)


def _binomial_pascal(key: Tuple, n: int, i: int, z: RationalFunction) -> Entry:
    """Pascal's rule, the very recurrence the ``_gauss_binomial_poly`` table is built by."""
    lhs = q_binomial(n, i, z)
    return _compare(key, lhs, q_binomial(n - 1, i - 1, z) + z**i * q_binomial(n - 1, i, z))


def _binomial_inverse(key: Tuple, n: int, i: int, q: QValue) -> Entry:
    # q_binomial at z = 1/q is q^-i(n-i) (n i)_q by palindromy, so at symbolic
    # q the rhs takes (n i)_q = sum c_j q^j at 1/q term by term: sum c_j q^-j
    lhs = q_binomial(n, i, q.power(-1))
    if q.is_symbolic:
        return _compare(key, lhs, q_laurent(q, [(c, -j) for c, j in gauss_terms(n, i)]))
    return _compare(key, lhs, q.power(-i * (n - i)) * q_binomial(n, i, q.scalar()))


def _table1_cell(key: Tuple, rv, cv, q: QValue) -> List[Entry]:
    # one commutator per cell; the derived twin reports only when the
    # printed form fails, and reuses the printed check's lhs
    lhs, rhs = table1_sides(rv, cv, q, derived=False)
    printed = _compare(key, lhs, rhs)
    if printed.status == PASS:
        return [printed]
    return [printed, _compare(key + ("derived",), lhs, table1_rhs(rv, cv, q, derived=True))]


def _table2_cell(key: Tuple, row: Tuple[str, int], col, q: QValue) -> Entry:
    kind, lhs, rhs = table2_sides(row, col, q)
    if kind == "membership":
        ok = membership_generic(lhs)
        return _boolean(key + ("membership",), ok, lhs.render(), "member of L(q)")
    return _compare(key + (kind,), lhs, rhs)


def _ideal_cell(key: Tuple, m: int, n: int, gen, q: QValue) -> Entry:
    lhs = commutator(NormalElement.monomial(m, n, q), expand_gen_basis(gen, q))
    return _boolean(key, membership_generic(lhs), lhs.render(), "in L(q)")


def _nilpotent_case(key: Tuple, m: int, n: int, q: QValue) -> Entry:
    member, support_ok, _ = nilpotent_generic_case(m, n, q)
    return _boolean(
        key,
        member and support_ok,
        "membership=%s" % member,
        "case-span support=%s" % support_ok,
    )


def _roundtrip(key: Tuple, x: NormalElement) -> Entry:
    """x, drawn with coefficients in Z[q], back from its [A,B]-power
    coordinates.  At rational q both basis changes are linear with constant
    entries, so x = sum q^e x_e round-trips exactly when each x_e, of the
    integer coefficients n_e, does: each runs on the integer kernels."""
    parts = [x]
    if not x.q.is_symbolic:
        slices: Dict[int, Dict] = {}
        for k, c in x.terms.items():
            for e, n in enumerate(c.num.coeffs):
                if n:
                    slices.setdefault(e, {})[k] = RationalFunction.from_int(n)
        parts = [NormalElement(x.q, t, _raw=True) for t in slices.values()]
    ok = all(from_lie_power_basis(to_lie_power_basis(y)) == y for y in parts)
    return _boolean(key, ok, x.render()[:120], "exact round-trip")


def _rank(key: Tuple, *args) -> Entry:
    count, rank = independence_counts(*args)
    return _boolean(key, count == rank, "%d vectors" % count, "rank %d" % rank)


def _zero_id2(key: Tuple, word: str, m: int, n: int, q: QValue) -> Entry:
    lhs = commutator(bracketed_word(word, q), NormalElement.monomial(m, n, q))
    return _boolean(key, membership_zero(lhs), lhs.render()[:120], "in L(0)")


def _in_l0(key: Tuple, build: Callable, args: Tuple, text: str) -> Entry:
    return _boolean(key, membership_zero(build(*args)), text, "in L(0)")


def _bia2_b2ak(key: Tuple, i: int, k: int) -> Entry:
    lhs, rhs = bia2_b2ak_sides(i, k)
    if lhs != rhs:
        return _compare(key, lhs, rhs)
    return _boolean(key, membership_zero(lhs), lhs.render()[:120], "closed form + in L(0)")


def _necklace_count(n: int) -> int:
    """Aperiodic binary necklaces of length n, from 2^n = sum over d | n of d * count(d)."""
    return (2**n - sum(d * _necklace_count(d) for d in range(1, n) if n % d == 0)) // n


def _regular_count(key: Tuple, L: int, found: int) -> Entry:
    want = _necklace_count(L)
    text = "%d aperiodic necklaces" % want
    return _boolean(key, found == want, "%d regular words" % found, text)


def _lie_necessary(key: Tuple, w: str) -> Entry:
    return _boolean(key, is_lie(bracket_expansion(w)), "<%s>" % w)


def _not_lie(key: Tuple, f: dict, text: str) -> Entry:
    return _boolean(key, not is_lie(f), text, "not a Lie polynomial")


def _defining_element_not_lie(key: Tuple, q: QValue) -> Entry:
    x = add_terms({}, (("AB", RF_ONE), ("BA", -q.scalar()), ("", -RF_ONE)))  # no BA at q = 0
    return _not_lie(key, x, "AB - qBA - I")


# ---------------------------------------------------------------------------
# scalar combinatorics
# ---------------------------------------------------------------------------


def _qcomb(q: QValue, bounds) -> Items:
    z = q.scalar()
    for n in range(bounds["n"] + 1):
        yield ("int-recurrence", n), _int_recurrence, (n, z)
        yield ("factorial-recurrence", n), _factorial_recurrence, (n, z)
        for i in range(n + 1):
            sym = (q_binomial, (n, i, z), q_binomial, (n, n - i, z))
            yield ("binomial-symmetry", n, i), _pair, sym
            if 1 <= i <= n - 1:
                yield ("binomial-pascal", n, i), _binomial_pascal, (n, i, z)
            yield ("binomial-inverse", n, i), None if q.is_zero else _binomial_inverse, (n, i, q)


# ---------------------------------------------------------------------------
# H(q) identity sweeps
# ---------------------------------------------------------------------------


def _reorder(q: QValue, bounds) -> Items:
    for kind in REORDER_KINDS:
        for n in range(1, bounds["n"] + 1):
            fn = None if q.is_zero and kind in ("BA^n", "B^nA") else _sides  # needs q^-1
            yield (kind, n), fn, (reorder_sides, kind, n, q)


def _shift(q: QValue, bounds) -> Items:
    for length in range(1, bounds["plen"] + 1):
        for letters in itertools.product(ALPHABET, repeat=length):
            word = "".join(letters)
            for n in range(bounds["n"] + 1):
                yield (word, n), _sides, (shift_poly_sides, word, n, q)


def _bnan_anbn(q: QValue, bounds) -> Items:
    for n in range(bounds["n"] + 1):
        ba, ab = ("B" * n + "A" * n, q), ("A" * n + "B" * n, q)
        yield ("BnAn", n), _pair, (bnan_expand, (n, q), nf_word, ba)
        yield ("AnBn", n), _pair, (anbn_expand, (n, q), nf_word, ab)
        yield ("AnBn-gauss", n), _pair, (anbn_via_gauss, (n, q), nf_word, ab)


def _adad(q: QValue, bounds) -> Items:
    for m in range(bounds["m"] + 1):
        for n in range(bounds["n"] + 1):
            yield ("ad-brBA", m, n), _two_sides, (("ad-B", m, n), adad_sides, m, n, q)


def _fban(q: QValue, bounds) -> Items:
    for n in range(1, bounds["n"] + 1):
        yield ("brBAn", n), _two_sides, (("brBnA", n), fban_sides, n, q)


# ---------------------------------------------------------------------------
# generic-q structure suites
# ---------------------------------------------------------------------------


def _beta_closed(q: QValue, bounds) -> Items:
    for k in range(bounds["k"] + 1):
        for l in range(1, bounds["l"] + 1):
            for kind in ("A", "B"):
                yield (kind, k, l), _sides, (beta_closed_sides, kind, k, l, q)
        for derived, tag in ((False, "printed"), (True, "derived")):
            yield ("G", k, tag), _sides, (beta_closed_sides, "G", k, 1, q, derived)
            yield ("Gsum", k, tag), _sides, (beta_gamma_sum_sides, k, q, derived)


def _table1(q: QValue, bounds) -> Items:
    for name, rv, cv in table1_cells(bounds["idx"]):
        yield (name, rv.render(), cv.render()), _table1_cell, (rv, cv, q)


def _bigcomrel(q: QValue, bounds) -> Items:
    for k in range(bounds["k"] + 1):
        for l in range(1, bounds["l"] + 1):
            for m in range(bounds["m"] + 1):
                for n in range(1, bounds["n"] + 1):
                    case = "l>n" if l > n else ("l<n" if l < n else "l=n")
                    yield (case, k, l, m, n), _sides, (bigcomrel_sides, k, l, m, n, q)


def _table2(q: QValue, bounds) -> Items:
    kl = range(bounds["kl"] + 1)
    cols = [BrBA()]
    cols += [GammaBar(k) for k in kl]
    cols += [AlphaBar(k, l) for k in kl for l in kl[1:]]
    cols += [BetaBar(k, l) for k in kl for l in kl[1:]]
    for e in range(2, bounds["mn"] + 1):
        for letter in ("A", "B"):
            for col in cols:
                key = ("%s^%d" % (letter, e), col.render())
                yield key, _table2_cell, ((letter, e), col, q)


def _ideal_generic(q: QValue, bounds) -> Items:
    for e in range(2, bounds["exp"] + 1):
        for k in range(bounds["k"] + 1):
            for l in range(1, bounds["l"] + 1):
                yield ("[A^n,Bbar]", e, k, l), _ideal_cell, (0, e, BetaBar(k, l), q)
                yield ("[B^m,Abar]", e, k, l), _ideal_cell, (e, 0, AlphaBar(k, l), q)


def _nilpotent_generic(q: QValue, bounds) -> Items:
    for m in range(2, bounds["mn"] + 1):
        for n in range(2, bounds["mn"] + 1):
            yield ("[B^m,A^n]", m, n), _nilpotent_case, (m, n, q)


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


def _grad_roundtrip(q: QValue, bounds) -> Items:
    rng = random.Random(bounds.get("seed", 20250809))
    for i in range(bounds["count"]):
        yield ("roundtrip", i), _roundtrip, (_random_element(rng, q, bounds["support"]),)


def _independence(q: QValue, bounds) -> Items:
    D = bounds["bound"]
    if q.is_zero:
        for mode in ("zero", "zero-extended"):
            yield (mode, D), _rank, (mode, D)
    else:
        yield ("generic", D), _rank, ("generic", D, q)


# ---------------------------------------------------------------------------
# q = 0 suites
# ---------------------------------------------------------------------------


def _zero_basis(q: QValue, bounds) -> Items:
    for m in range(1, bounds["mn"] + 1):
        for n in range(1, bounds["mn"] + 1):
            word = ("B" * m + "A" * n, q)
            yield ("BmAn-printed", m, n), _pair, (bracketed_word, word, brmn_printed, (m, n))
            yield ("BmAn-derived", m, n), _pair, (bracketed_word, word, brmn_closed, (m, n))
    for n in range(1, bounds["fer"] + 1):
        for m in range(1, bounds["fer"] + 1):
            yield ("AnBm", n, m), _sides, (fer_sides, n, m)
    for idx in range(4, bounds["idx"] + 1):
        yield ("notAnBm-1", idx), _sides, (notanbm_sides, 1, idx)
        yield ("notAnBm-2-printed", idx), _sides, (notanbm_sides, 2, idx, False)
        yield ("notAnBm-2-derived", idx), _sides, (notanbm_sides, 2, idx, True)


def _zero_ideal(q: QValue, bounds) -> Items:
    for m in range(1, bounds["mn"] + 1):
        for n in range(1, bounds["mn"] + 1):
            yield ("fer2-printed", m, n), _sides, (fer2_sides, m, n, False)
            yield ("fer2-derived", m, n), _sides, (fer2_sides, m, n, True)
    for eqno in (1, 2, 3, 4):
        for idx in range(4, bounds["idx"] + 1):
            yield ("idlem%d-printed" % eqno, idx), _sides, (idlem_sides, eqno, idx, 0, False)
            yield ("idlem%d-derived" % eqno, idx), _sides, (idlem_sides, eqno, idx, 0, True)
    for i in range(4, bounds["idx"] + 1):
        for l in range(4, bounds["idx"] + 1):
            yield ("idlem5", i, l), _sides, (idlem_sides, 5, i, l)
            yield ("idlem5b", i, l), _sides, (idlem5b_sides, i, l)
    r = range(4, bounds["cor"] + 1)
    for i, j, l in itertools.product(r, r, r):
        word = "B" * i + "A" * j
        yield ("zeroId2-BlA2", i, j, l), _zero_id2, (word, l, 2, q)
        yield ("zeroId2-B2Ak", i, j, l), _zero_id2, (word, 2, l, q)


def _zero_nilpotent(q: QValue, bounds) -> Items:
    rng = range(1, bounds["r"] + 1)
    for r in rng:
        yield ("f_r", r), _in_l0, (f_r, (r,), "B^%d A^%d - I" % (r, r))
    for x, r, y in itertools.product(rng, rng, rng):
        text = "B^%d f_%d A^%d" % (x, r, y)
        yield ("BxfrAy", x, r, y), _in_l0, (sandwiched_f_r, (x, r, y), text)
    for i in range(4, bounds["idx"] + 1):
        for k in range(4, bounds["idx"] + 1):
            yield ("[BiA2,B2Ak]", i, k), _bia2_b2ak, (i, k)


# ---------------------------------------------------------------------------
# Lie polynomials in the free algebra
# ---------------------------------------------------------------------------

# controls the criterion must reject; ABA and AB - BA + ABA pass theta(f) = -f
_NOT_LIE = {
    "AB": {"AB": 1},
    "AAB": {"AAB": 1},
    "ABA": {"ABA": 1},
    "AB + BA": {"AB": 1, "BA": 1},
    "AB - BA + ABA": {"AB": 1, "BA": -1, "ABA": 1},
}


def _theta_lie(q: QValue, bounds) -> Items:
    words = enumerate_regular(bounds["len"])
    by_len = Counter(map(len, words))
    for L in range(1, bounds["len"] + 1):
        yield ("regular-count", L), _regular_count, (L, by_len[L])
    for w in words:
        yield ("lie-necessary", w), _lie_necessary, (w,)
    for text, f in _NOT_LIE.items():
        yield ("not-lie", text), _not_lie, (f, text)
    yield ("defining-element-not-lie",), _defining_element_not_lie, (q,)


# ---------------------------------------------------------------------------
# registry and driver
# ---------------------------------------------------------------------------


class SuiteConfig(Record):
    __slots__ = ("suite", "q", "bounds")

    def __init__(self, suite: str, q: QValue, bounds: Optional[Dict[str, int]] = None):
        if suite not in SUITES:
            raise ValueError(
                "unknown suite %r (choose from %s)" % (suite, ", ".join(sorted(SUITES)))
            )
        spec = SUITES[suite]
        merged = dict(spec.default_bounds)
        for k, v in (bounds or {}).items():
            if k not in merged:
                raise ValueError(
                    "suite %s has no bound %r (valid: %s)"
                    % (suite, k, ", ".join(sorted(merged)))
                )
            low = spec.min_bounds.get(k, 0)
            if v < low:
                raise ValueError("bound %s must be >= %d" % (k, low))
            merged[k] = v
        self.suite, self.q, self.bounds = suite, q, merged


_degenerate = attrgetter("is_degenerate")


class SuiteSpec(Record):
    __slots__ = ("name", "items", "default_bounds", "skip", "min_bounds")

    def __init__(self, name: str, items: Callable[[QValue, Dict[str, int]], Items],
                 default_bounds: Dict[str, int], skip: Callable[[QValue], bool] = lambda q: False,
                 min_bounds: Optional[Dict[str, int]] = None):
        self.name, self.items, self.default_bounds = name, items, default_bounds
        self.skip = skip  # true: every key skipped-degenerate
        self.min_bounds = {} if min_bounds is None else min_bounds  # smallest allowed value, if not 0


SUITES: Dict[str, SuiteSpec] = {
    s.name: s
    for s in [
        SuiteSpec("qcomb", _qcomb, {"n": 8}),
        SuiteSpec("reorder", _reorder, {"n": 8}),
        SuiteSpec("shift", _shift, {"plen": 5, "n": 4}, lambda q: q.is_zero),
        SuiteSpec("bnan-anbn", _bnan_anbn, {"n": 8}, lambda q: q.is_zero or q.is_one),
        SuiteSpec("adad", _adad, {"m": 8, "n": 8}),
        SuiteSpec("fban", _fban, {"n": 8}),
        SuiteSpec("beta-closed", _beta_closed, {"k": 4, "l": 4}, _degenerate),
        SuiteSpec("table1", _table1, {"idx": 3}, _degenerate),
        SuiteSpec("bigcomrel", _bigcomrel, {"k": 3, "l": 3, "m": 3, "n": 3}, _degenerate),
        SuiteSpec("table2", _table2, {"mn": 4, "kl": 3}, _degenerate),
        SuiteSpec("ideal-generic", _ideal_generic, {"exp": 4, "k": 3, "l": 3}, _degenerate),
        SuiteSpec("nilpotent-generic", _nilpotent_generic, {"mn": 5}, _degenerate),
        SuiteSpec("grad-basis-roundtrip", _grad_roundtrip, {"count": 200, "support": 8, "seed": 20250809},
                  lambda q: q.is_zero or q.is_one),
        SuiteSpec("independence", _independence, {"bound": 6}, lambda q: q.is_degenerate and not q.is_zero),
        SuiteSpec("zero-basis", _zero_basis, {"mn": 6, "fer": 8, "idx": 7}, lambda q: not q.is_zero),
        SuiteSpec("zero-ideal", _zero_ideal, {"mn": 6, "idx": 7, "cor": 6}, lambda q: not q.is_zero),
        SuiteSpec("zero-nilpotent", _zero_nilpotent, {"r": 4, "idx": 7}, lambda q: not q.is_zero),
        # regular words have at least one letter
        SuiteSpec("theta-lie", _theta_lie, {"len": 10}, min_bounds={"len": 1}),
    ]
}


def run_suite(cfg: SuiteConfig) -> Report:
    spec = SUITES[cfg.suite]
    rep = Report(spec.name, cfg.q.render(), cfg.bounds)
    items = list(spec.items(cfg.q, cfg.bounds))  # every key before the first check
    skip = spec.skip(cfg.q)
    for key, fn, args in items:
        if skip or fn is None:
            rep.entries.append(Entry(key, SKIPPED))
            continue
        out = fn(key, *args)
        if isinstance(out, Entry):
            rep.entries.append(out)
        else:
            rep.entries.extend(out)
    return rep.sort()
