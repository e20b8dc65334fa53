"""The CLI's argv parser against the argparse parser it replaced.

`argparse_cli.parse_reference` is the former parser.  For every argv of a
fixed corpus both parsers give the same fields or the same exit code; for
generated token sequences they do too, once the argv is written the way
the reference needs it, except where one of the deliberate differences
below applies.  `test_deliberate_differences` pins one argv of each.

- --q takes the next token as its value, whatever it starts with, and the
  other options take one that does not start with '--' (the reference took
  only a token that does not start with '-', or a number after --q).  The
  generated argv join each option to its value by '=' for the reference, so
  this difference is checked, not excused.  Where the next token starts
  with '--', --suite, --bound, --json and --jobs refuse it, as the
  reference did.
- Before the command only -h and --help are read; any other token there is
  a usage error at once.  The reference set unknown options there aside,
  so a later -h still printed the help.
- In eval, any token before '--' that starts with '-' and is not --q, -h or
  --help is the expression.  The reference refused one that starts with
  '--', and a '-B' whenever a '--' came later in the argv.
- A '--' that ends the options needs no operand after it.  The reference
  left it over as an unrecognized argument, except right after eval's
  expression.
- After '--' every token is an operand.  The reference still rewrote
  '--q -1/3' there into '--q=-1/3'.
- An option whose value is '--' gets '--'.  The reference gave it an empty
  list, skipped the --suite choice check, and `eval --q=-- A` then ended
  in an AttributeError.
- No prefix abbreviations: the reference read --su as --suite, --qu as
  --quiet and --he as --help.
- --bound with no value is an empty list, not None.
"""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.cli import _parse_argv
from qheis.suites import SUITES

from argparse_cli import parse_reference

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("verify", "eval")
VALUE_OPTIONS = {"verify": ("--suite", "--q", "--bound", "--json", "--jobs"), "eval": ("--q",)}


def parse_new(argv):
    """The fields `_parse_argv` gives ``argv`` in the reference's form, or
    its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(_parse_argv(list(argv)))
        except SystemExit as exc:
            return exc.code
    if fields.get("bound") == []:
        fields["bound"] = None
    return fields


def read_tokens(argv):
    """The tokens after the command as the documented grammar reads them,
    each as (kind, token, value): kind "value" for an option and its value
    (None at the end of argv, or where an option other than --q meets a next
    token that starts with '--', which then stays a token of its own), "end"
    for the '--' that ends the options, "operand" for a token after it and
    "other" for any other token."""
    options = VALUE_OPTIONS.get(argv[0], ()) if argv else ()
    out = []
    tokens = argv[1:]
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        name, eq, value = tok.partition("=")
        i += 1
        if tok == "--":
            out.append(("end", tok, None))
            out += [("operand", t, None) for t in tokens[i:]]
            break
        if name not in options:
            out.append(("other", tok, None))
        elif eq:
            out.append(("value", name, value))
        elif i < len(tokens) and (name == "--q" or tokens[i][:2] != "--"):
            out.append(("value", name, tokens[i]))
            i += 1
        else:
            out.append(("value", name, None))
    return out


def as_reference(argv):
    """``argv`` with each option joined to its value by '='."""
    read = read_tokens(argv)
    return argv[:1] + [
        tok if kind != "value" or value is None else tok + "=" + value for kind, tok, value in read
    ]


def deliberate(argv, new, reference):
    """The names of the deliberate differences that explain why the two
    parsers read ``argv`` apart, given the two outcomes."""
    read = read_tokens(argv)
    parsed_new, parsed_reference = isinstance(new, dict), isinstance(reference, dict)
    names = []
    if argv and argv[0] not in COMMANDS + ("-h", "--help") and new == 2:
        names.append("only help before the command")
    dash_tokens = [tok for kind, tok, _ in read if kind == "other" and tok[:1] == "-"]
    if reference == 2 and parsed_new and new.get("expression") in dash_tokens:
        names.append("eval reads a '-' token as the expression")
    if read and read[-1][0] == "end" and reference == 2 and parsed_new:
        names.append("a '--' needs no operand after it")
    after = [tok for kind, tok, _ in read if kind == "operand"]
    joined = any(a == "--q" and b[:1] == "-" and b[1:2].isdigit() for a, b in zip(after, after[1:]))
    if joined and parsed_reference and new == 2:
        names.append("no rewriting after '--'")
    if any(kind == "value" and value == "--" for kind, _, value in read):
        names.append("an option's value may be '--'")
    return names


def ci_argv():
    """The argv of every qheis call in the CI workflow."""
    out = []
    for line in (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines():
        if "qheis.cli " not in line:
            continue
        words = shlex.split(line.split("qheis.cli ", 1)[1])
        stop = [i for i, w in enumerate(words) if w in (">", "|", "||", "2>&1")]
        words = words[: stop[0]] if stop else words
        out.append([w.rstrip(")") for w in words])
    return out


def readme_argv():
    """The argv of every qheis call the README shows."""
    text = (ROOT / "README.md").read_text()
    return [shlex.split(m) for m in re.findall(r"(?:^\$ |`)qheis ((?:verify|eval) [^`\n]*)", text, re.M)]


def perfbench_argv():
    """The argv of every call of the benchmark's workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = [
        run.verify_argv(suite, q, bounds, "report.json")
        for workload in ("verify-symbolic", "verify-specialized")
        for suite, q, bounds in run.verify_calls(workload, 1)
    ]
    pool = json.loads((ROOT / "perfbench" / "expected" / "eval.json").read_text())
    return out + [["eval", "--q=" + p["q"], p["text"]] for p in pool]


def cli_test_argv():
    """The argv that tests/test_cli.py passes to main."""
    out = [
        ["verify", "--suite", suite, "--q=" + q, "--bound", bound + "=0", "--quiet"]
        for suite in sorted(SUITES)
        for bound in SUITES[suite].default_bounds
        for q in ("symbolic", "0", "-1/3")
    ]
    adad = ["verify", "--suite", "adad", "--bound", "m=3", "--bound", "n=3"]
    verify = ["verify", "--suite", "table1", "--q=-1/3", "--quiet", "--json", "first.json"]
    reorder = ["verify", "--suite", "reorder", "--bound", "n=3", "--quiet"]
    return out + [
        adad, adad + ["--jobs", "4"], adad + ["--jobs", "many"], verify, verify[:-2] + ["--bound", "idx=1"],
        ["verify", "--suite", "reorder", "--q", "symbolic", "--bound", "n=4", "--json", "report.json"],
        ["verify", "--suite", "table1", "--q", "symbolic", "--bound", "idx=1", "--quiet"],
        ["verify", "--suite", "table1", "--q", "1", "--quiet"], ["verify", "--suite", "reorder", "--q", "bogus"],
        ["verify", "--suite", "reorder", "--bound", "wat"], ["verify", "--suite", "not-a-suite"],
        ["verify", "--suite", "reorder", "--json", "missing/x.json"], reorder + ["--q=-1/3"], reorder + ["--q", "-1/3"],
        ["eval", "--q", "symbolic", "A*B"], ["eval", "--q", "0", "B*A - I"], ["eval", "--q", "symbolic", "<AB>"],
        ["eval", "--q=-1/3", "A*B"], ["eval", "--q", "-1/3", "A*B"], ["eval", "--q", "-1/0", "A"],
        ["eval", "--", "-B"], ["eval", "-B"], ["eval", "--q=2", "--", "-2*A*B"], ["eval", "--q=2", "-2*A*B"],
        ["eval", "-2*A*B", "--q=2"], ["eval", "--q", "2", "-2*A*B"], ["eval", "--q", "-1/3", "-B"],
        ["eval", "-h"], ["eval", "--help"], ["eval", "-B", "--q"], ["eval", "--q"], ["eval", "--q=0", "q^-1"],
        ["eval", "--q=1", "(q-1)^-1"], ["eval", "(q-q)^-2"], ["eval", "A^-1"], ["eval", "(A*B - q*B*A)^-1"],
        ["eval", "--q", "-1/3", "(A + 2*B)^4"], ["eval", "--", "-" * 3000 + "A"], ["eval", "A^99999999999"],
        ["eval", "<BA"], ["eval", "--q=2", "+".join(["A"] * 50)], ["eval", "--q=2", "2^15000"],
        ["-h"], ["verify", "-h"], [], ["frob"], ["verify"],
    ]


@pytest.mark.parametrize("source", [cli_test_argv, ci_argv, readme_argv, perfbench_argv])
def test_corpus_parses_as_the_reference_parsed_it(source):
    argvs = source()
    assert argvs
    for argv in argvs:
        assert parse_new(argv) == parse_reference(argv), argv


def test_the_corpus_sources_are_read():
    assert ["eval", "--q=2", "(A + B)^14"] in ci_argv()
    assert ["verify", "--suite", "table1", "--q=-1/3", "--bound", "idx=6", "--quiet"] in ci_argv()
    assert ["eval", "--q", "symbolic", "A*B"] in readme_argv()
    assert ["eval", "-2*A*B"] in readme_argv()
    assert len(perfbench_argv()) > 1000


TOKENS = (
    "verify", "eval", "--suite", "table1", "reorder", "not-a-suite", "--q", "-1/3", "2", "--bound",
    "idx=2", "--json", "--jobs", "many", "--quiet", "-B", "A*B", "--", "-h",
)
argvs = st.lists(st.sampled_from(TOKENS), max_size=9) | st.builds(
    lambda command, rest: [command] + rest, st.sampled_from(COMMANDS), st.lists(st.sampled_from(TOKENS), max_size=8)
)


@settings(max_examples=1500, deadline=None)
@given(argvs)
def test_generated_argv_parse_as_the_reference_parsed_them(argv):
    new, reference = parse_new(argv), parse_reference(as_reference(argv))
    if new != reference:
        assert deliberate(argv, new, reference), (argv, new, reference)


@pytest.mark.parametrize(
    "argv, reference, new",
    [
        (["eval", "--q", "-B", "A"], 2, {"command": "eval", "q": "-B", "expression": "A"}),
        (["-B", "-h"], 0, 2),
        (["eval", "--A"], 2, {"command": "eval", "q": "symbolic", "expression": "--A"}),
        (["eval", "-B", "--"], 2, {"command": "eval", "q": "symbolic", "expression": "-B"}),
        (["verify", "--suite", "reorder", "--"], 2, dict(
            command="verify", suite="reorder", q="symbolic", bound=None, json=None, jobs=1, quiet=False
        )),
        (["eval", "--", "--q", "-1/3"], {"command": "eval", "q": "symbolic", "expression": "--q=-1/3"}, 2),
        (["eval", "--q=--", "A"], {"command": "eval", "q": [], "expression": "A"}, {
            "command": "eval", "q": "--", "expression": "A"
        }),
        (["verify", "--suite=--", "-h"], 0, 2),
        (["verify", "--su", "table1"], dict(
            command="verify", suite="table1", q="symbolic", bound=None, json=None, jobs=1, quiet=False
        ), 2),
        (["eval", "--he"], 0, {"command": "eval", "q": "symbolic", "expression": "--he"}),
    ],
)
def test_deliberate_differences(argv, reference, new):
    assert parse_reference(argv) == reference
    assert parse_new(argv) == new
