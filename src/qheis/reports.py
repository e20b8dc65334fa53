"""Report containers shared by the verification suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped-degenerate"


def tuple_sort_key(t: Tuple) -> Tuple:
    """Deterministic order for heterogeneous entry tuples."""
    return tuple((0, x, "") if isinstance(x, int) else (1, 0, str(x)) for x in t)


@dataclass
class Entry:
    tuple: Tuple
    status: str
    lhs: str = ""
    rhs: str = ""
    residual: str = ""

    def to_dict(self) -> dict:
        return {
            "tuple": list(self.tuple),
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
        }


@dataclass
class Report:
    suite: str
    q: str
    bounds: Dict[str, int]
    entries: List[Entry] = field(default_factory=list)

    def sort(self) -> "Report":
        self.entries.sort(key=lambda e: tuple_sort_key(e.tuple))
        return self

    @property
    def summary(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for e in self.entries:
            if e.status == PASS:
                out["pass"] += 1
            elif e.status == FAIL:
                out["fail"] += 1
            else:
                out["skipped"] += 1
        return out

    @property
    def all_passed(self) -> bool:
        return self.summary["fail"] == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "q": self.q,
            "bounds": dict(self.bounds),
            "entries": [e.to_dict() for e in self.entries],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        lines = [
            "suite: %s  q: %s  bounds: %s"
            % (self.suite, self.q, " ".join("%s=%d" % kv for kv in sorted(self.bounds.items())))
        ]
        for e in self.entries:
            lines.append("%-7s %s" % (e.status, e.tuple))
            if e.status == FAIL:
                lines.append("        lhs = %s" % e.lhs)
                lines.append("        rhs = %s" % e.rhs)
                if e.residual:
                    lines.append("        residual = %s" % e.residual)
        s = self.summary
        lines.append(
            "summary: pass=%d fail=%d skipped=%d" % (s["pass"], s["fail"], s["skipped"])
        )
        return "\n".join(lines)
