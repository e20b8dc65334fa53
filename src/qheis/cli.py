"""Command-line front end.

    qheis verify --suite table1 --q symbolic --bound idx=3 [--json out.json] [--jobs N]
    qheis eval --q symbolic "A*B - q*B*A - I"

`--jobs N` is accepted for compatibility and ignored: threads never beat a
serial run of the pure-Python algebra.

Exit status: 0 when nothing failed, 1 when any entry failed, 2 on usage
errors (unknown suite, malformed q or bounds, an unwritable --json path,
expression syntax errors, too deep or too long input, division by zero).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import Dict, List, Optional

from .coeff import QValue
from .expr import ParseError, EvalError, eval_expr, parse, pretty
from .suites import SUITES, SuiteConfig, run_suite


def _parse_bounds(pairs: Optional[List[str]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError("--bound expects name=value, got %r" % item)
        try:
            out[name] = int(value)
        except ValueError as exc:
            raise ValueError("--bound %s needs an integer, got %r" % (name, value)) from exc
    return out


def _prepare_argv(argv: List[str]) -> List[str]:
    """Rewrite the tokens argparse would misread as options.  It reads a
    separate token that starts with '-' and is not a plain number as an
    option, so ``--q -1/3`` becomes ``--q=-1/3``, and an ``eval``
    expression that starts with a single '-' (``-B``, ``-2*A*B``) moves to
    the end, behind ``--``."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1] == "--q" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = "--q=" + tok
        else:
            out.append(tok)
    if out[:1] == ["eval"] and "--" not in out:
        for i, tok in enumerate(out):
            if tok[:1] == "-" and tok[1:2] != "-" and tok != "-h" and out[i - 1] != "--q":
                return out[:i] + out[i + 1 :] + ["--", tok]
    return out


def _check_writable(path: str) -> None:
    """Raise ValueError unless a file can be written at ``path``; leaves no
    file behind that was not there before."""
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ValueError("cannot write the JSON report to %s: %s" % (path, exc.strerror)) from exc
    if not existed:
        os.remove(path)


@lru_cache(maxsize=None)  # built once per process: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheis",
        description="exact verifier for the q-deformed Heisenberg algebra AB - qBA = I",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    verify.add_argument("--q", default="symbolic", help="'symbolic' or a rational p/r")
    verify.add_argument(
        "--bound", action="append", metavar="NAME=VALUE", help="override a suite bound"
    )
    verify.add_argument("--json", metavar="PATH", help="write the JSON report here")
    verify.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="accepted and ignored; suites run serially"
    )
    verify.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )

    ev = sub.add_parser("eval", help="evaluate an expression in H(q)")
    ev.add_argument("--q", default="symbolic", help="'symbolic' or a rational p/r")
    ev.add_argument("expression")
    return parser


def _cmd_verify(args) -> int:
    try:
        q = QValue.parse(args.q)
        bounds = _parse_bounds(args.bound)
        cfg = SuiteConfig(suite=args.suite, q=q, bounds=bounds)
        if args.json:
            _check_writable(args.json)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = run_suite(cfg)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if args.quiet:
        s = report.summary
        print(
            "suite=%s q=%s pass=%d fail=%d skipped=%d"
            % (report.suite, report.q, s["pass"], s["fail"], s["skipped"])
        )
    else:
        print(report.render_text())
    return 0 if report.all_passed else 1


def _cmd_eval(args) -> int:
    try:
        q = QValue.parse(args.q)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        ast = parse(args.expression)
        result = eval_expr(ast, q)
    except (ParseError, EvalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("expression:   %s" % pretty(ast))
    print("q:            %s" % q.render())
    parts = {d: part.render() for d, part in result.graded.parts.items()}
    print("normal form:  %s" % (" + ".join(parts.values()) or "0"))
    for d, text in parts.items():
        print("  degree %+d:  %s" % (d, text))
    if result.lie_coords is not None:
        print("[A,B]-basis:  %s" % result.lie_coords.render())
    if result.membership is None:
        print("membership:   undecided (q = %s is degenerate)" % q.render())
    else:
        where = "L(0)" if result.membership_mode == "zero" else "L(q)"
        print(
            "membership:   %s %s"
            % ("member of" if result.membership else "NOT a member of", where)
        )
    return 0


# results are exact: during a call of main, integers of any length are read
# and printed (Python 3.10.7 and later cap them at 4300 digits by default)
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)


def main(argv: Optional[List[str]] = None) -> int:
    limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        parser = _build_parser()
        args = parser.parse_args(_prepare_argv(sys.argv[1:] if argv is None else argv))
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        parser.error("unknown command")
        return 2
    finally:
        _set_digit_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
