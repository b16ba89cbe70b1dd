"""Audit reports, one record per checked inequality, and the one CSV format.

An audit compares a computed left-hand side against a right-hand side at a
declared tolerance; two-sided (equivalence) checks are encoded by putting the
worst-case side ratio on the left and the admissible constant on the right,
so the single invariant ``passed == (lhs <= rhs * (1 + tolerance))`` holds
for every report.

Each report is of one kind: "asserted" rows check a claim, "measured" rows
only record a value (their right-hand side is infinite) and are left out of
the run's audit counts.

Every CSV line nsklab writes is built by ``csv_line``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

__all__ = ["AuditReport", "bound_report", "identity_report", "audit_csv_lines", "csv_line"]

CSV_HEADER = ("inequality_id", "lhs", "rhs", "ratio", "tolerance", "pass", "citation", "kind")


def csv_line(cells) -> str:
    """The cells joined by commas: a float (numpy's too) to 17 significant
    digits, which reads back exactly, a bool as true/false, else ``str``."""
    return ",".join([
        f"{c:.17g}" if isinstance(c, (float, np.floating))
        else ("true" if c else "false") if isinstance(c, (bool, np.bool_))
        else str(c)
        for c in cells
    ])


@dataclass(frozen=True)
class AuditReport:
    inequality_id: str
    lhs: float
    rhs: float
    ratio: float
    tolerance: float
    passed: bool
    citation: str
    kind: str = "asserted"  # or "measured"


def bound_report(inequality_id, lhs, rhs, tolerance, citation, kind="asserted") -> AuditReport:
    """lhs <= rhs up to relative tolerance; ratio is lhs/rhs (0 when vacuous)."""
    lhs, rhs = float(lhs), float(rhs)
    ratio = lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else np.inf)
    passed = bool(lhs <= rhs * (1.0 + tolerance) + np.finfo(float).tiny)
    return AuditReport(inequality_id, lhs, rhs, ratio, tolerance, passed, citation, kind)


def identity_report(inequality_id, lhs, rhs, tolerance, citation, floor=0.0) -> AuditReport:
    """lhs == rhs up to relative tolerance (scaled by the larger side)."""
    lhs, rhs = float(lhs), float(rhs)
    scale = max(abs(lhs), abs(rhs), floor)
    err = abs(lhs - rhs)
    ratio = err / scale if scale > 0 else 0.0
    passed = bool(err <= tolerance * scale + np.finfo(float).tiny)
    return AuditReport(inequality_id, lhs, rhs, ratio, tolerance, passed, citation)


def _severity(r: AuditReport) -> tuple:
    # a measured row's ratio is 0 (its rhs is inf), so its value ranks it
    return (not r.passed, r.lhs if r.kind == "measured" else r.ratio)


def _merge_worst(reports: list[AuditReport]) -> list[AuditReport]:
    """Per inequality id, a failing row if there is one, else the largest."""
    worst: dict[str, AuditReport] = {}
    for r in reports:
        prev = worst.get(r.inequality_id)
        if prev is None or _severity(r) > _severity(prev):
            worst[r.inequality_id] = r
    return [worst[k] for k in sorted(worst)]


def audit_csv_lines(reports) -> list[str]:
    return [csv_line(row) for row in [CSV_HEADER, *map(astuple, reports)]]
