"""The batch CLI: suites, reports, exit codes, determinism."""

import decimal
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qheis.cli import _check_writable, main
from qheis.coeff import QValue
from qheis.expr import eval_expr, parse
from qheis.lie import KNOWN_DISCREPANCIES, table1_cells
from qheis.suites import SUITES, SuiteConfig, run_suite

from helpers import report_from_json

EXPECTED_SUITES = {
    "qcomb", "reorder", "shift", "bnan-anbn", "adad", "fban", "beta-closed",
    "table1", "bigcomrel", "table2", "ideal-generic", "nilpotent-generic",
    "grad-basis-roundtrip", "independence", "zero-basis", "zero-ideal",
    "zero-nilpotent", "theta-lie",
}


def run(suite, q="symbolic", bounds=None):
    cfg = SuiteConfig(suite=suite, q=QValue.parse(q), bounds=bounds or {})
    return run_suite(cfg)


def test_suite_catalog_is_complete():
    assert set(SUITES) == EXPECTED_SUITES


def test_readme_suite_table_names_every_suite_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = re.findall(r"^\| `([a-z0-9-]+)` \|", readme, flags=re.M)
    assert sorted(names) == sorted(SUITES)


def test_cli_import_leaves_dataclasses_and_inspect_out():
    """Every CLI call is a fresh process: importing ``dataclasses`` (which
    imports ``inspect``) and building its generated methods cost about 20 ms
    of each call's start-up, and ``argparse`` (which imports ``gettext``)
    about 2 ms more, so the CLI's modules do without them.  ``-S`` keeps
    site hooks of the environment out of the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = "{'dataclasses', 'inspect', 'argparse', 'gettext'}"
    code = "import sys, qheis.cli; print(sorted(%s & set(sys.modules)))" % heavy
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_unknown_suite_rejected_at_config_time():
    with pytest.raises(ValueError, match="unknown suite"):
        SuiteConfig(suite="nope", q=QValue())
    with pytest.raises(ValueError, match="no bound"):
        SuiteConfig(suite="reorder", q=QValue(), bounds={"zz": 3})


def test_reorder_suite_passes_symbolically():
    rep = run("reorder", bounds={"n": 6})
    assert rep.all_passed
    assert rep.summary == {"pass": 24, "fail": 0, "skipped": 0}


def test_reorder_suite_skips_inverse_forms_at_q_zero():
    rep = run("reorder", q="0", bounds={"n": 5})
    assert rep.all_passed
    assert rep.summary["skipped"] == 10
    assert rep.summary["pass"] == 10


def test_degenerate_q_skips_whole_suite():
    for suite in ("table1", "beta-closed", "bigcomrel", "nilpotent-generic"):
        rep = run(suite, q="1", bounds=None)
        assert rep.summary["fail"] == 0
        assert rep.summary["pass"] == 0
        assert rep.summary["skipped"] > 0


def test_zero_suites_skip_at_generic_q():
    rep = run("zero-nilpotent", q="symbolic", bounds={"r": 2, "idx": 4})
    assert rep.summary["pass"] == 0 and rep.summary["skipped"] > 0


def test_table1_failures_are_exactly_the_known_typo_cells():
    rep = run("table1", bounds={"idx": 2})
    fails = [e for e in rep.entries if e.status == "fail"]
    assert fails, "the printed table contains known typos"
    for e in fails:
        name = e.tuple[0]
        assert name in ("Abar|A", "Abar|B", "A|Bbar")
    # every failing printed cell has a passing derived twin
    derived = {e.tuple[:-1] for e in rep.entries if e.tuple[-1] == "derived" and e.status == "pass"}
    for e in fails:
        assert e.tuple in derived
    assert "table1:Abar-A" in KNOWN_DISCREPANCIES


def test_table1_computes_each_commutator_once(monkeypatch):
    import qheis.lie
    import qheis.suites

    run("table1", bounds={"idx": 2})  # warm the basis-expansion caches
    commutators, derived_rhs = [], []
    commutator, table1_rhs = qheis.lie.commutator, qheis.lie.table1_rhs

    def counted_commutator(x, y):
        commutators.append(1)
        return commutator(x, y)

    def counted_rhs(row, col, q, derived=False):
        if derived:
            derived_rhs.append((row.render(), col.render()))
        return table1_rhs(row, col, q, derived)

    monkeypatch.setattr(qheis.lie, "commutator", counted_commutator)
    monkeypatch.setattr(qheis.lie, "table1_rhs", counted_rhs)
    monkeypatch.setattr(qheis.suites, "table1_rhs", counted_rhs)
    rep = run("table1", bounds={"idx": 2})
    assert len(commutators) == len(list(table1_cells(2)))
    fails = [e.tuple[1:] for e in rep.entries if e.status == "fail"]
    assert fails and sorted(derived_rhs) == sorted(fails)


def test_table1_derived_twin_exactly_for_failing_printed_cells():
    rep = run("table1", bounds={"idx": 3})
    derived = [e for e in rep.entries if e.tuple[-1] == "derived"]
    printed_fails = {e.tuple for e in rep.entries if e.status == "fail"}
    assert {e.tuple[:-1] for e in derived} == printed_fails
    assert all(e.status == "pass" for e in derived)
    assert rep.summary == {"pass": 634, "fail": 25, "skipped": 0}
    skipped = run("table1", q="1", bounds={"idx": 3})
    assert skipped.summary == {"pass": 0, "fail": 0, "skipped": len(list(table1_cells(3)))}


def test_table2_suite_all_pass_including_rederived_cell():
    rep = run("table2", bounds={"mn": 3, "kl": 2})
    assert rep.all_passed
    kinds = {e.tuple[-1] for e in rep.entries}
    assert {"closed", "membership", "derived"} <= kinds


def test_bigcomrel_passes_and_covers_all_cases():
    rep = run("bigcomrel", bounds={"k": 1, "l": 3, "m": 1, "n": 3})
    assert rep.all_passed
    cases = {e.tuple[0] for e in rep.entries}
    assert cases == {"l>n", "l<n", "l=n"}


def test_json_report_roundtrip(tmp_path):
    rep = run("fban", bounds={"n": 4})
    text = rep.to_json()
    back = report_from_json(text)
    assert back == rep
    data = json.loads(text)
    assert set(data) == {"suite", "q", "bounds", "entries", "summary"}
    assert set(data["summary"]) == {"pass", "fail", "skipped"}
    for entry in data["entries"]:
        assert set(entry) == {"tuple", "status", "lhs", "rhs", "residual"}


def test_jobs_option_is_accepted_and_ignored(capsys):
    argv = ["verify", "--suite", "adad", "--bound", "m=3", "--bound", "n=3"]
    code = main(argv)
    out = capsys.readouterr().out
    assert main(argv + ["--jobs", "4"]) == code == 0
    assert capsys.readouterr().out == out
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "many"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "reorder", "--q", "symbolic", "--bound", "n=4", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["fail"] == 0
    capsys.readouterr()

    # table1 carries the printed typo cells: honest failure exit
    code = main(["verify", "--suite", "table1", "--q", "symbolic", "--bound", "idx=1", "--quiet"])
    assert code == 1
    capsys.readouterr()

    code = main(["verify", "--suite", "table1", "--q", "1", "--quiet"])
    assert code == 0
    capsys.readouterr()

    code = main(["verify", "--suite", "reorder", "--q", "bogus"])
    assert code == 2
    code = main(["verify", "--suite", "reorder", "--bound", "wat"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_bound_at_zero_runs_or_is_named_in_a_usage_error(suite, capsys):
    # no bound value the config accepts may end in a traceback; one it
    # refuses gets a single error line that names it, and exit 2
    for bound in SUITES[suite].default_bounds:
        for q in ("symbolic", "0", "-1/3"):
            code = main(["verify", "--suite", suite, "--q=" + q, "--bound", bound + "=0", "--quiet"])
            out, err = capsys.readouterr()
            if code == 2:
                assert not out and err == "error: bound %s must be >= 1\n" % bound
            else:
                assert code in (0, 1) and out.startswith("suite=%s " % suite) and not err
    if suite == "theta-lie":  # regular words have at least one letter
        assert code == 2


def test_cli_rejects_unknown_suite_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "not-a-suite"])
    assert exc.value.code == 2


def test_cli_eval_text_output(capsys):
    code = main(["eval", "--q", "symbolic", "A*B"])
    assert code == 0
    out = capsys.readouterr().out
    assert "normal form:" in out
    assert "q * B A" in out
    assert "NOT a member" in out

    code = main(["eval", "--q", "0", "B*A - I"])
    out = capsys.readouterr().out
    assert code == 0
    assert "member of L(0)" in out

    code = main(["eval", "--q", "symbolic", "<AB>"])
    assert code == 2


def test_zero_suites_pass_at_q_zero():
    rep = run("zero-nilpotent", q="0", bounds={"r": 3, "idx": 5})
    assert rep.all_passed
    rep = run("independence", q="0", bounds={"bound": 4})
    assert rep.all_passed


def test_zero_ideal_suite_prints_and_derives():
    rep = run("zero-ideal", q="0", bounds={"mn": 4, "idx": 5, "cor": 4})
    fails = {e.tuple[0] for e in rep.entries if e.status == "fail"}
    # printed defects localized to the known families, derived twins pass
    assert fails <= {"fer2-printed", "idlem1-printed", "idlem3-printed", "idlem4-printed"}
    for e in rep.entries:
        if e.tuple[0].endswith("-derived"):
            assert e.status == "pass"


def test_theta_suite_passes():
    rep = run("theta-lie", bounds={"len": 7})
    assert rep.all_passed


def test_cli_accepts_negative_q_as_separate_token(capsys):
    assert main(["eval", "--q=-1/3", "A*B"]) == 0
    joined = capsys.readouterr().out
    assert main(["eval", "--q", "-1/3", "A*B"]) == 0
    assert capsys.readouterr().out == joined
    assert "q:            -1/3" in joined

    args = ["verify", "--suite", "reorder", "--bound", "n=3", "--quiet"]
    assert main(args + ["--q=-1/3"]) == 0
    joined = capsys.readouterr().out
    assert main(args + ["--q", "-1/3"]) == 0
    assert capsys.readouterr().out == joined

    assert main(["eval", "--q", "-1/0", "A"]) == 2
    assert "q must be" in capsys.readouterr().err


def test_cli_eval_accepts_expression_that_starts_with_minus(capsys):
    assert main(["eval", "--", "-B"]) == 0
    separated = capsys.readouterr().out
    assert main(["eval", "-B"]) == 0
    assert capsys.readouterr().out == separated
    assert "expression:   -B" in separated

    assert main(["eval", "--q=2", "--", "-2*A*B"]) == 0
    separated = capsys.readouterr().out
    for argv in (["--q=2", "-2*A*B"], ["-2*A*B", "--q=2"], ["--q", "2", "-2*A*B"]):
        assert main(["eval"] + argv) == 0
        assert capsys.readouterr().out == separated
    assert main(["eval", "--q", "-1/3", "-B"]) == 0
    assert "q:            -1/3" in capsys.readouterr().out


def test_cli_eval_help_and_q_still_read_as_options(capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", flag])
        assert exc.value.code == 0
        assert "usage: qheis eval" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-B", "--q"])
    assert exc.value.code == 2
    assert "--q: expected one argument" in capsys.readouterr().err


def test_cli_eval_names_division_by_zero(capsys):
    assert main(["eval", "--q=0", "q^-1"]) == 2
    assert "division by zero: q is 0 at q = 0" in capsys.readouterr().err
    assert main(["eval", "--q=1", "(q-1)^-1"]) == 2
    assert "division by zero: q - 1 is 0 at q = 1" in capsys.readouterr().err
    assert main(["eval", "(q-q)^-2"]) == 2
    assert "division by zero" in capsys.readouterr().err
    assert main(["eval", "A^-1"]) == 2
    assert "non-scalar" in capsys.readouterr().err


def test_cli_eval_normal_form_is_the_join_of_its_degree_lines(capsys):
    # each grading part is rendered once; the normal form joins them in order
    for q, text in (("symbolic", "(A + B)^5 - q*[A,B]^2 + 3*(q-1)^-1"), ("-1/3", "(A + 2*B)^4"), ("0", "<BBA> + A")):
        assert main(["eval", "--q", q, text]) == 0
        lines = capsys.readouterr().out.splitlines()
        normal = [l for l in lines if l.startswith("normal form:  ")]
        degrees = [l.split(":  ", 1)[1] for l in lines if l.startswith("  degree ")]
        assert len(normal) == 1 and len(degrees) > 1
        assert normal[0] == "normal form:  " + " + ".join(degrees)
        assert normal[0][len("normal form:  "):] == eval_expr(parse(text), QValue.parse(q)).normal.render()
    assert main(["eval", "A*B - q*B*A - I"]) == 0
    out = capsys.readouterr().out
    assert "normal form:  0\n" in out and "  degree " not in out


def test_cli_eval_negative_power_of_a_multiple_of_identity_in_hq(capsys):
    # AB - qBA is I in H(q), though not a scalar in the free algebra
    assert main(["eval", "(A*B - q*B*A)^-1"]) == 0
    assert "normal form:  1\n" in capsys.readouterr().out
    assert main(["eval", "(A*B - q*B*A - I)^-1"]) == 2
    assert "division by zero" in capsys.readouterr().err


def test_cli_verify_rejects_unwritable_json_path_before_running(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr("qheis.cli.run_suite", lambda cfg: ran.append(cfg))
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code = main(["verify", "--suite", "reorder", "--json", str(path)])
        assert code == 2
        assert "error: cannot write the JSON report" in capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "missing").exists()


def test_cli_verify_refuses_an_option_as_the_value_of_json(tmp_path, capsys, monkeypatch):
    # --json once took --quiet as its path: the run exited 0 and wrote the
    # report to a file named --quiet
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "reorder", "--bound", "n=2", "--json", "--quiet"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "qheis: error: argument --json: expected one argument"
    assert not list(tmp_path.iterdir())


def test_writability_check_leaves_files_as_they_were(tmp_path):
    fresh = tmp_path / "report.json"
    _check_writable(str(fresh))
    assert not fresh.exists()
    kept = tmp_path / "old.json"
    kept.write_text("{}\n")
    _check_writable(str(kept))
    assert kept.read_text() == "{}\n"


def test_cli_eval_refuses_deep_input_with_a_clean_error(capsys):
    # one error line naming the cause, not a RecursionError traceback
    cases = (
        (["<" + "B" * 1199 + "A>"], "bracketed word too long: 1200 letters, at most 200"),
        (["(" * 600 + "A" + ")" * 600], "expression nested deeper than 100 levels"),
        (["--", "-" * 3000 + "A"], "expression nested deeper than 100 levels"),
        (["A^99999999999"], "exponent too large: 99999999999, at most 20000 (at position 2)"),
    )
    for argv, cause in cases:
        assert main(["eval"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + cause)
        assert captured.err.count("\n") == 1


def test_cli_eval_names_the_end_of_input(capsys):
    assert main(["eval", "<BA"]) == 2
    assert capsys.readouterr().err == "error: expected '>', found end of input (at position 3)\n"


def test_cli_eval_runs_long_flat_chains(capsys):
    # a flat + or * chain is folded in a loop; only real nesting counts
    # against the depth limit
    for op, normal in (("+", "5000 * A"), ("*", "A^5000")):
        assert main(["eval", "--q=2", op.join(["A"] * 5000)]) == 0
        captured = capsys.readouterr()
        assert "normal form:  %s\n" % normal in captured.out
        assert captured.err == ""


def test_cli_eval_prints_every_digit_of_a_big_integer(capsys):
    # the 4,516 digits, computed without converting a Python int to str
    digits = str(decimal.Context(prec=5000).power(decimal.Decimal(2), 15000))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["eval", "--q=2", "2^15000"]) == 0
    assert "normal form:  %s\n" % digits in capsys.readouterr().out
    # the digit limit is lifted only for the call
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_reused_parser_carries_nothing_between_calls(tmp_path, capsys):
    # one process serves many calls (the benchmark's eval sessions): a call
    # prints what it would print as the first call of a process
    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def first_call(argv):
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys; from qheis.cli import main; sys.exit(main(sys.argv[1:]))"
        out = subprocess.run(
            [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=str(src)),
            cwd=tmp_path, capture_output=True, text=True,
        )
        return out.returncode, out.stdout, out.stderr

    verify = ["verify", "--suite", "table1", "--q=-1/3", "--quiet", "--json"]
    want_verify = first_call(verify + ["first.json"])
    want_eval = first_call(["eval", "--q=2", "A*B - B^2"])
    want_minus = first_call(["eval", "-B"])
    want_minus_q = first_call(["eval", "--q", "-1/3", "-B"])

    assert want_verify[0] == 1  # the printed typo cells of table1
    # --bound adds to a list: a later call without it gets the defaults
    bounded = call(verify[:-1] + ["--bound", "idx=1"])
    assert bounded[0] == 1 and bounded[1] != want_verify[1]
    later_json = tmp_path / "later.json"
    assert call(verify + [str(later_json)]) == want_verify
    assert later_json.read_text() == (tmp_path / "first.json").read_text()
    # a usage error leaves nothing behind
    assert call(["eval", "--q"])[0] == 2
    assert call(["eval", "--q=2", "A*B - B^2"]) == want_eval
    # neither does --help, nor an expression that starts with '-'
    assert call(["eval", "--help"])[0] == 0
    assert call(["eval", "-B"]) == want_minus
    assert call(["eval", "--q", "-1/3", "-B"]) == want_minus_q
    assert call(["eval", "--q=2", "A*B - B^2"]) == want_eval


def test_help_lists_both_commands_and_every_suite(capsys):
    for argv in (["-h"], ["--help"], ["verify", "-h"], ["eval", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: qheis ") and not err
        assert "qheis verify --suite SUITE" in out and "qheis eval [--q Q] EXPRESSION" in out
        assert all(name in out for name in SUITES)


@pytest.mark.parametrize(
    "argv, cause",
    [
        ([], "expected the command verify or eval, got nothing"),
        (["frob"], "expected the command verify or eval, got 'frob'"),
        (["verify"], "the following arguments are required: --suite"),
        (["eval"], "the following arguments are required: EXPRESSION"),
        (["verify", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        (["verify", "--suite", "adad", "A"], "unrecognized arguments: A"),
        (["eval", "A", "B"], "unrecognized arguments: B"),
        (["verify", "--suite", "--quiet"], "argument --suite: expected one argument"),
        (["verify", "--suite", "adad", "--bound", "--", "m=2"], "argument --bound: expected one argument"),
        (["verify", "--suite", "adad", "--jobs", "--json", "x"], "argument --jobs: expected one argument"),
    ],
)
def test_usage_errors_print_usage_and_the_cause(argv, cause, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert not out and lines[0].startswith("usage: qheis ")
    assert lines[-1] == "qheis: error: " + cause
