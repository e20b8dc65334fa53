"""qheis: exact calculator and verifier for H(q) = <A, B | AB - qBA = I>.

    qheis verify --suite SUITE [--q Q] [--bound NAME=VALUE]... [--json PATH] [--jobs N] [--quiet]
    qheis eval [--q Q] EXPRESSION

Q is 'symbolic' (the default) or a rational p/r.  An option takes its value
after '=' or as the next token: --q any next token, even one that starts
with '-' (--q -1/3), the other options one that does not start with '--'.
Any other token that starts with '-', except -h and --help, is eval's
EXPRESSION (eval -B); a lone '--' ends the options.  --jobs is accepted and
ignored (suites run serially); it stays because perfbench/run.py passes it.

Exit status: 0 when nothing failed, 1 when any entry failed, 2 on usage
errors (unknown suite, malformed q or bounds, an unwritable --json path,
expression syntax errors, too deep or too long input, division by zero).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Dict, List, Optional

from .coeff import QValue
from .expr import eval_expr, parse, pretty
from .suites import SUITES, SuiteConfig, run_suite

# the options that take a value, per command
_OPTIONS = {"verify": ("--suite", "--q", "--bound", "--json", "--jobs"), "eval": ("--q",)}
_USAGE = {
    "verify": "qheis verify --suite SUITE [--q Q] [--bound NAME=VALUE]... [--json PATH] [--jobs N] [--quiet]",
    "eval": "qheis eval [--q Q] EXPRESSION",
}


def _parse_bounds(pairs: List[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError("--bound expects name=value, got %r" % item)
        if name in out:
            raise ValueError("bound %s given twice" % name)
        try:
            out[name] = int(value)
        except ValueError as exc:
            raise ValueError("--bound %s needs an integer, got %r" % (name, value)) from exc
    return out


def _check_writable(path: str) -> None:
    """Raise ValueError unless a file can be written at ``path``; leaves no
    file behind that was not there before."""
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ValueError("cannot write the JSON report to %r: %s" % (path, exc.strerror)) from exc
    if not existed:
        os.remove(path)


def _exit(command: Optional[str], error: str = "") -> None:
    """Print the help of ``command`` (None: of both) and exit 0, or the
    usage and ``error`` on stderr and exit 2."""
    usage = "usage: " + _USAGE.get(command, "\n       ".join(_USAGE.values()))
    if error:
        print("%s\nqheis: error: %s" % (usage, error), file=sys.stderr)
        raise SystemExit(2)
    print("%s\n\n%s\nsuites: %s" % (usage, __doc__, ", ".join(sorted(SUITES))))
    raise SystemExit(0)


def _parse_argv(argv: List[str]) -> SimpleNamespace:
    """The fields of ``argv`` under the grammar of the module docstring."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command in ("-h", "--help"):
        _exit(None)
    if command not in _OPTIONS:
        _exit(None, "expected the command verify or eval, got %s" % ("nothing" if command is None else repr(command)))
    args = SimpleNamespace(command=command, q="symbolic")
    if command == "verify":
        args.__dict__.update(suite=None, bound=[], json=None, jobs=1, quiet=False)
    rest: List[str] = []
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if tok == "--":
            rest.extend(tokens)  # the tokens after it are all operands
        elif tok in ("-h", "--help"):
            _exit(command)
        elif tok == "--quiet" and command == "verify":
            args.quiet = True
        elif name not in _OPTIONS[command]:
            rest.append(tok)
        else:
            value = value if eq else next(tokens, None)
            if value is None or not eq and name != "--q" and value[:2] == "--":
                _exit(command, "argument %s: expected one argument" % name)
            if name == "--suite" and value not in SUITES:
                _exit(command, "argument --suite: invalid choice: %r" % value)
            try:
                value = int(value) if name == "--jobs" else value
            except ValueError:
                _exit(command, "argument --jobs: invalid int value: %r" % value)
            setattr(args, name[2:], args.bound + [value] if name == "--bound" else value)
    if command == "verify" and args.suite is None:
        _exit(command, "the following arguments are required: --suite")
    if command == "eval":
        if not rest:
            _exit(command, "the following arguments are required: EXPRESSION")
        args.expression = rest.pop(0)
    if rest:
        _exit(command, "unrecognized arguments: %s" % " ".join(rest))
    return args


def _cmd_verify(args) -> int:
    try:
        q = QValue.parse(args.q)
        bounds = _parse_bounds(args.bound)
        cfg = SuiteConfig(suite=args.suite, q=q, bounds=bounds)
        if args.json is not None:
            _check_writable(args.json)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = run_suite(cfg)
    if args.json is not None:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
    if args.quiet:
        s = report.summary
        print("suite=%s q=%s pass=%d fail=%d skipped=%d" % (report.suite, report.q, s["pass"], s["fail"], s["skipped"]))
    else:
        print(report.render_text())
    return 0 if report.all_passed else 1


def _cmd_eval(args) -> int:
    try:  # ParseError and EvalError are ValueErrors
        q = QValue.parse(args.q)
        ast = parse(args.expression)
        result = eval_expr(ast, q)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("expression:   %s" % pretty(ast))
    print("q:            %s" % q.render())
    parts = result.normal.render_parts()
    print("normal form:  %s" % (" + ".join(parts.values()) or "0"))
    for d, text in parts.items():
        print("  degree %+d:  %s" % (d, text))
    if result.lie_coords is not None:
        print("[A,B]-basis:  %s" % result.lie_coords.render())
    if result.membership is None:
        print("membership:   undecided (q = %s is degenerate)" % q.render())
    else:
        where = "L(0)" if result.membership_mode == "zero" else "L(q)"
        print("membership:   %s %s" % ("member of" if result.membership else "NOT a member of", where))
    return 0


# results are exact: during a call of main, integers of any length are read
# and printed (Python 3.10.7 and later cap them at 4300 digits by default)
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)


def main(argv: Optional[List[str]] = None) -> int:
    limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        return _cmd_verify(args) if args.command == "verify" else _cmd_eval(args)
    finally:
        _set_digit_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
