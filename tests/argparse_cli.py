"""The CLI's former argparse parser, kept in the tests as a reference.

`qheis.cli` reads its argv with a small hand-written parser.  This module
keeps the argparse parser it replaced, with the argv rewriting that parser
needed, so that `test_cli_parser.py` can compare the two on a corpus of
argv and on generated token sequences.  `parse_reference(argv)` returns the
parsed fields as a dict, or the exit code argparse raised.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from functools import lru_cache
from typing import List, Union

from qheis.suites import SUITES


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


def parse_reference(argv: List[str]) -> Union[dict, int]:
    """The fields argparse gives ``argv``, or its exit code (0 after help,
    2 after a usage error); what it prints is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(_prepare_argv(list(argv))))
        except SystemExit as exc:
            return exc.code
