"""Regenerate the benchmark's expected outputs.

    python3 perfbench/expected.py

Runs every fixed verify call of the two verify workloads and every
expression of the eval pool through the same worker the benchmark uses,
and writes expected/verify.json and expected/eval.json.  The files are
not simply copies of the program's output:

- every `fail` entry must be a printed form registered in
  qheis.lie.KNOWN_DISCREPANCIES whose derived twin entry passes;
- grad-basis-roundtrip, whose entries depend on the run's seed, is not
  recorded; checks.grad_rows predicts it and is compared here with the
  program for a few seeds;
- every eval expression must exit 0 and agree with the oracle.

The recorded cost of each expression only orders the pool into the strata
that sessions draw from.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import exprgen
import run

# registry id of each printed form that is known to fail, by entry name
TABLE1_IDS = {"Abar|A": "table1:Abar-A", "Abar|B": "comrelAB1", "A|Bbar": "comrelAB4"}
PRINTED_IDS = {
    "BmAn-printed": "BmAnEQ",
    "notAnBm-2-printed": "notAnBmeq2",
    "fer2-printed": "fer2AnBm",
    "idlem1-printed": "idLemeq1",
    "idlem3-printed": "idLemeq3",
    "idlem4-printed": "idLemeq4",
}
GRAD_SEEDS = (0, 1, 20250809)


def twin_of(suite: str, key: list):
    """(registry id, derived twin key) of a failing entry, or None."""
    if suite == "table1":
        return TABLE1_IDS.get(key[0]), key + ["derived"]
    if key[0] in PRINTED_IDS:
        return PRINTED_IDS[key[0]], [key[0].replace("-printed", "-derived")] + key[1:]
    return None


def check_fails(suite: str, rows: list, registry: dict) -> None:
    status = {json.dumps(key): s for key, s, _ in rows}
    for key, s, _ in rows:
        if s != "fail":
            continue
        found = twin_of(suite, key)
        if found is None or found[0] not in registry:
            raise SystemExit("%s %s fails and is not a registered printed form" % (suite, key))
        if status.get(json.dumps(found[1])) != "pass":
            raise SystemExit("%s %s: derived twin %s does not pass" % (suite, key, found[1]))


def run_verify(suite, q, bounds):
    path = os.path.join(run.WORK, "expected-report.json")
    reply = run.spawn({"calls": [run.verify_argv(suite, q, bounds, path)], "trace": False})
    with open(path) as fh:
        report = json.load(fh)
    os.remove(path)
    rows = checks.report_rows(report)
    if reply["calls"][0]["rc"] != checks.expected_rc(rows):
        raise SystemExit("%s q=%s: exit code %r" % (suite, q, reply["calls"][0]["rc"]))
    return rows


def main() -> int:
    sys.path.insert(0, run.SRC)
    from qheis.lie import KNOWN_DISCREPANCIES

    os.makedirs(run.WORK, exist_ok=True)
    verify = {}
    for workload in ("verify-symbolic", "verify-specialized"):
        for suite, q, bounds in run.verify_calls(workload, GRAD_SEEDS[0]):
            if suite == checks.GRAD_SUITE:
                continue
            rows = run_verify(suite, q, bounds)
            check_fails(suite, rows, KNOWN_DISCREPANCIES)
            verify[checks.call_key(suite, q, bounds)] = rows
            print("verify %s q=%s: %d entries" % (suite, q, len(rows)))
    for seed in GRAD_SEEDS:
        for q in ("symbolic", "-1/3"):
            bounds = {"count": run.GRAD_COUNT, "seed": seed}
            if run_verify(checks.GRAD_SUITE, q, bounds) != checks.grad_rows(seed, run.GRAD_COUNT):
                raise SystemExit("grad-basis-roundtrip seed=%d q=%s: prediction differs" % (seed, q))

    pool = exprgen.pool()
    evals = []
    step = exprgen.SESSION_LEN
    for lo in range(0, len(pool), step):
        items = pool[lo:lo + step]
        reply = run.spawn(
            {
                "calls": [["eval", "--q=" + it["q"], it["text"]] for it in items],
                "trace": False,
                "eval": [{"tree": it["tree"], "q": it["q"]} for it in items],
            }
        )
        for it, call, ok in zip(items, reply["calls"], reply["oracle"]):
            if call["rc"] != 0 or call["traceback"] or not ok:
                raise SystemExit("eval --q=%s %r: rc=%r oracle=%s" % (it["q"], it["text"], call["rc"], ok))
            evals.append(
                {
                    "text": it["text"],
                    "q": it["q"],
                    "rc": call["rc"],
                    "stdout_sha256": call["stdout_sha256"],
                    "cost_ms": round(call["wall_s"] * 1e3, 3),
                }
            )
        print("eval pool: %d of %d" % (len(evals), len(pool)))

    os.makedirs(os.path.dirname(checks.EXPECTED_VERIFY), exist_ok=True)
    with open(checks.EXPECTED_VERIFY, "w") as fh:
        fh.write("{\n")
        keys = sorted(verify)
        for i, key in enumerate(keys):
            fh.write("%s: [\n" % json.dumps(key))
            rows = verify[key]
            fh.write(",\n".join("  " + json.dumps(r) for r in rows))
            fh.write("\n]%s\n" % ("," if i < len(keys) - 1 else ""))
        fh.write("}\n")
    with open(checks.EXPECTED_EVAL, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in evals) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
