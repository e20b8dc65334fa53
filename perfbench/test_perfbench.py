"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import exprgen  # noqa: E402
import expected  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, run.SRC)

from qheis import cli  # noqa: E402
from qheis.coeff import QValue, RationalFunction  # noqa: E402
from qheis.expr import eval_expr, parse  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    a, b = exprgen.pool(), exprgen.pool()
    assert [(e["text"], e["q"], e["tree"]) for e in a] == [
        (e["text"], e["q"], e["tree"]) for e in b
    ]
    costs = [float(i % 37) for i in range(exprgen.POOL_SIZE)]
    first = exprgen.sessions(5, costs)
    again = exprgen.sessions(5, costs)
    other = exprgen.sessions(6, costs)
    s5 = [next(first) for _ in range(3)]
    assert s5 == [next(again) for _ in range(3)]
    assert s5 != [next(other) for _ in range(3)]
    assert all(len(s) == exprgen.SESSION_LEN == len(set(s)) for s in s5)


def test_generated_text_parses_back_to_the_tree():
    for e in exprgen.pool()[:200]:
        assert not e["text"].startswith("-")
        assert exprgen.render(e["tree"]) == e["text"]
        parse(e["text"])  # raises on a syntax error


def _result(text, q):
    return eval_expr(parse(text), QValue.parse(q))


@pytest.mark.parametrize("q", ["symbolic", "2", "-1/3", "0"])
def test_oracle_accepts_the_program_and_rejects_a_perturbed_coefficient(q):
    tree = ("pow", ("add", ("A",), ("word", "BBA")), 3)
    r = _result(exprgen.render(tree), q)
    lie = r.lie_coords.coords if r.lie_coords is not None else None
    assert oracle.check(tree, q, r.normal.terms, lie)
    key = sorted(r.normal.terms)[0]
    bad = dict(r.normal.terms)
    bad[key] = bad[key] + RationalFunction.from_int(1)
    assert not oracle.check(tree, q, bad, lie)
    if lie is not None:
        bad_lie = dict(lie)
        k = sorted(bad_lie)[-1]
        bad_lie[k] = bad_lie[k] + RationalFunction.from_int(1)
        assert not oracle.check(tree, q, r.normal.terms, bad_lie)


def _verify_in_process(tmp_path, suite, q, bounds):
    path = str(tmp_path / "report.json")
    argv = run.verify_argv(suite, q, bounds, path)
    rc = cli.main(argv)
    with open(path) as fh:
        report = json.load(fh)
    summary = report["summary"]
    stdout = "summary: pass=%d fail=%d skipped=%d\n" % (
        summary["pass"], summary["fail"], summary["skipped"]
    )
    return {"rc": rc, "traceback": "", "stdout": stdout}, report


def test_grad_prediction_matches_the_program(tmp_path, capsys):
    bounds = {"count": 6, "seed": 42}
    call, report = _verify_in_process(tmp_path, checks.GRAD_SUITE, "symbolic", bounds)
    want = checks.grad_rows(42, 6)
    assert checks.report_rows(report) == want
    assert checks.failed_entries(call, report, want) == 0


def test_verify_check_rejects_a_corrupted_result(tmp_path, capsys):
    call, report = _verify_in_process(tmp_path, "bigcomrel", "symbolic", {})
    verify, _ = checks.load_expected()
    want = checks.expected_verify(verify, "bigcomrel", "symbolic", {})
    assert checks.failed_entries(call, report, want) == 0
    report["entries"][3]["rhs"] += " + 1"
    assert checks.failed_entries(call, report, want) == 1
    assert checks.failed_entries(dict(call, rc=1), report, want) == len(want)
    assert checks.failed_entries(dict(call, traceback="Traceback"), report, want) == len(want)
    assert checks.failed_entries(call, None, want) == len(want)
    assert checks.failed_entries(call, {"entries": [{}]}, want) == len(want)


def test_oracle_that_raises_is_a_failed_op(monkeypatch):
    import worker

    def boom(*args):
        raise ZeroDivisionError

    text = "A*B"
    call = {"argv": ["eval", "--q=2", text], "stdout": cli_stdout(["eval", "--q=2", text])}
    item = {"tree": ("mul", ("A",), ("B",)), "q": "2"}
    assert worker.check_eval([item], [call]) == [True]
    monkeypatch.setattr(oracle, "check", boom)
    assert worker.check_eval([item], [call]) == [False]


def cli_stdout(argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def test_eval_check_rejects_a_corrupted_result():
    _, pool = checks.load_expected()
    want = pool[0]
    call = {"rc": 0, "traceback": "", "stdout_sha256": want["stdout_sha256"]}
    assert not checks.eval_failed(call, want, True)
    assert checks.eval_failed(dict(call, stdout_sha256="0" * 64), want, True)
    assert checks.eval_failed(dict(call, rc=2), want, True)
    assert checks.eval_failed(call, want, False)


def test_unregistered_failure_is_refused():
    rows = [[["BmAn-printed", 3, 2], "fail", "x"], [["BmAn-derived", 3, 2], "pass", "y"]]
    expected.check_fails("zero-basis", rows, {"BmAnEQ": ""})
    with pytest.raises(SystemExit):
        expected.check_fails("zero-basis", rows, {})
    with pytest.raises(SystemExit):
        expected.check_fails("zero-basis", rows[:1], {"BmAnEQ": ""})
    with pytest.raises(SystemExit):
        expected.check_fails("bigcomrel", [[["l=n", 0, 1, 0, 1], "fail", "x"]], {})


def test_q_q1_power_classifier():
    assert tracer.is_q_q1_power((5,))
    assert tracer.is_q_q1_power((0, 0, 3))
    assert tracer.is_q_q1_power((1, -2, 1))  # (q - 1)^2
    assert tracer.is_q_q1_power((0, -2, 2))  # 2 q (q - 1)
    assert not tracer.is_q_q1_power((1, 1))  # q + 1
    assert not tracer.is_q_q1_power((-1, 0, 1))  # (q - 1)(q + 1)


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(trace, section):
    spec = _benchmark_json()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "eval-session",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_benchmark_fails_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark's files."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
