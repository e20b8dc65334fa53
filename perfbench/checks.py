"""Expected outputs of the benchmark's calls and the comparisons with them.

Verify calls are compared entry by entry (tuple, status and a digest of
the rendered sides) with `expected/verify.json`, except
grad-basis-roundtrip, whose inputs come from the run's seed: its entries
are predicted here by replaying the suite's documented random draw and
rendering the PBW element independently.  Eval calls are compared with the
digest of their recorded stdout in `expected/eval.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_VERIFY = os.path.join(HERE, "expected", "verify.json")
EXPECTED_EVAL = os.path.join(HERE, "expected", "eval.json")

GRAD_SUITE = "grad-basis-roundtrip"
GRAD_SUPPORT = 8  # the suite's default
GRAD_TERMS = 5  # monomials drawn per random element


def sides_digest(lhs: str, rhs: str, residual: str) -> str:
    return hashlib.sha256(json.dumps([lhs, rhs, residual]).encode()).hexdigest()[:16]


def call_key(suite: str, q: str, bounds: Dict[str, int]) -> str:
    """Identity of a verify call in the expected file (the seed excluded)."""
    rest = ",".join("%s=%d" % kv for kv in sorted(bounds.items()) if kv[0] != "seed")
    return "%s q=%s %s" % (suite, q, rest)


def report_rows(report: dict) -> List[list]:
    return [
        [e["tuple"], e["status"], sides_digest(e["lhs"], e["rhs"], e["residual"])]
        for e in report["entries"]
    ]


def expected_rc(rows: List[list]) -> int:
    return 1 if any(status == "fail" for _, status, _ in rows) else 0


# ---------------------------------------------------------------------------
# grad-basis-roundtrip: predicted from the seed
# ---------------------------------------------------------------------------


def _render_poly(cs: List[int]) -> str:
    parts = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else "%d*" % abs(c)
            body = head + ("q" if i == 1 else "q^%d" % i)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def render_pbw(terms: Dict[Tuple[int, int], List[int]]) -> str:
    """Text form of sum c(q) B^m A^n for polynomial coefficients c(q)."""
    if not terms:
        return "0"
    parts = []
    for m, n in sorted(terms, key=lambda k: (k[0] - k[1], k[0])):
        mono = []
        if m:
            mono.append("B" if m == 1 else "B^%d" % m)
        if n:
            mono.append("A" if n == 1 else "A^%d" % n)
        cs = _render_poly(terms[(m, n)])
        if cs == "1" and mono:
            parts.append(" ".join(mono))
            continue
        if "+" in cs or "- " in cs:
            cs = "(%s)" % cs
        parts.append("%s * %s" % (cs, " ".join(mono)) if mono else cs)
    return " + ".join(parts)


def _trim(cs: List[int]) -> List[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def grad_rows(seed: int, count: int) -> List[list]:
    """Entries of grad-basis-roundtrip: element i is a sum of GRAD_TERMS
    monomials c(q) B^m A^n with m, n < GRAD_SUPPORT + 1 and 1 to 3 integer
    coefficients in [-9, 9] (c = 1 when they are all zero), drawn in that
    order from random.Random(seed); each round-trip must pass."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        terms: Dict[Tuple[int, int], List[int]] = {}
        for _ in range(GRAD_TERMS):
            m = rng.randrange(GRAD_SUPPORT + 1)
            n = rng.randrange(GRAD_SUPPORT + 1)
            cs = _trim([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))]) or [1]
            old = terms.get((m, n), [])
            total = _trim([a + b for a, b in zip(old + [0] * len(cs), cs + [0] * len(old))])
            if total:
                terms[(m, n)] = total
            else:
                terms.pop((m, n), None)
        lhs = render_pbw(terms)[:120]
        rows.append([["roundtrip", i], "pass", sides_digest(lhs, "exact round-trip", "")])
    return rows


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def load_expected() -> Tuple[dict, List[dict]]:
    with open(EXPECTED_VERIFY) as fh:
        verify = json.load(fh)
    with open(EXPECTED_EVAL) as fh:
        evals = json.load(fh)
    return verify, evals


def expected_verify(verify: dict, suite: str, q: str, bounds: Dict[str, int]) -> List[list]:
    if suite == GRAD_SUITE:
        return grad_rows(bounds["seed"], bounds["count"])
    return verify[call_key(suite, q, bounds)]


def failed_entries(call: dict, report, want: List[list]) -> int:
    """Failed ops of one verify call: all of them when the exit code is
    wrong or the call ended in a traceback or wrote no report, otherwise
    expected entries that are missing or differ, plus unexpected ones,
    at most all of them."""
    if call["traceback"] or report is None or call["rc"] != expected_rc(want):
        return len(want)
    try:
        got = {json.dumps(row[0]): row for row in report_rows(report)}
        summary = "summary: pass=%d fail=%d skipped=%d" % tuple(
            report["summary"][k] for k in ("pass", "fail", "skipped")
        )
    except (KeyError, TypeError, IndexError):  # a report of the wrong shape
        return len(want)
    if not call["stdout"].rstrip().endswith(summary):
        return len(want)
    bad = sum(1 for row in want if got.pop(json.dumps(row[0]), None) != row)
    return min(len(want), bad + len(got))


def eval_failed(call: dict, want: dict, oracle_ok: bool) -> bool:
    return (
        bool(call["traceback"])
        or call["rc"] != want["rc"]
        or call["stdout_sha256"] != want["stdout_sha256"]
        or not oracle_ok
    )
