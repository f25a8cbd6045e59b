"""Verification report container and serializers.

A report is a flat list of rows, one identity check each, plus pass/fail
counts.  Serialization is fully deterministic: rows are sorted by
(identity, params), floats are written with 17 significant digits, and
there are no timestamps, so two runs with the same flags produce
byte-identical files.  JSON has no NaN or infinity, so there a row's
non-finite error is null; CSV writes nan or inf.  Such a row fails.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ReportRow", "VerifyReport", "make_report", "INFORMATIONAL"]

# tolerance for rows recorded, not gated: only a NaN or infinite error fails
# them (JSON has no infinity, so a finite value no real residual reaches)
INFORMATIONAL = 1e308


@dataclass(frozen=True)
class ReportRow:
    """One identity check.  ``passed`` serializes under the key "pass"."""

    identity: str
    params: str
    max_error: float
    tolerance: float
    passed: bool


def checked_row(identity: str, params: str, max_error: float,
                tolerance: float) -> ReportRow:
    return ReportRow(identity, params, max_error, tolerance, max_error < tolerance)


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    rows: tuple[ReportRow, ...]

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def n_fail(self) -> int:
        return len(self.rows) - self.n_pass

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0


def make_report(suite: str, rows) -> VerifyReport:
    ordered = tuple(sorted(rows, key=lambda r: (r.identity, r.params)))
    return VerifyReport(suite, ordered)


def _f17(x: float) -> str:
    return "%.17g" % float(x)


def to_json(report: VerifyReport) -> str:
    # hand-rolled so numbers carry exactly 17 significant digits; the json
    # module would re-shorten them
    out = io.StringIO()
    out.write('{\n  "suite": %s,\n  "rows": [\n' % json.dumps(report.suite))
    for i, r in enumerate(report.rows):
        err = _f17(r.max_error) if math.isfinite(r.max_error) else "null"
        out.write('    {"identity": %s, "params": %s, "max_error": %s, '
                  '"tolerance": %s, "pass": %s}%s\n'
                  % (json.dumps(r.identity), json.dumps(r.params), err, _f17(r.tolerance),
                     "true" if r.passed else "false",
                     "," if i + 1 < len(report.rows) else ""))
    out.write('  ],\n  "summary": {"pass": %d, "fail": %d}\n}\n'
              % (report.n_pass, report.n_fail))
    return out.getvalue()


def to_csv(report: VerifyReport) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["identity", "params", "max_error", "tolerance", "pass"])
    for r in report.rows:
        w.writerow([r.identity, r.params, _f17(r.max_error), _f17(r.tolerance),
                    "true" if r.passed else "false"])
    w.writerow(["summary", "pass=%d fail=%d" % (report.n_pass, report.n_fail),
                "", "", "true" if report.all_passed else "false"])
    return out.getvalue()


def serialize(report: VerifyReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    raise DomainError(f"unknown report format {fmt!r}")
