"""Corpus-level result metrics: pass rate, efficiency score, speedups.

All values are exact rationals internally; rounding happens only at display
time. The efficiency score rewards finishing in few iterations: a case solved
on attempt a out of an iteration budget u contributes (1 + u - a) / u, so a
first-try solve is worth 1.0 and a last-try solve 1/u. Whether failed cases
contribute the minimal term (as if they had consumed the whole budget) or are
skipped entirely is a reporting choice exposed as ``include_failed``;
including them is the default. Speedups arrive computed, as
``PerfResult.speedup``; this module only lists and bands them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import VecportError

SPEEDUP_BUCKETS = ("<0.5", "0.5-0.9", "0.9-1.1", "1.1-2.0", ">2.0")
DEFAULT_UP_LIMIT = 10
REPORT_FORMAT = "vecport-metrics-v1"  # report.json's "format"
# The outcome-record fields a summary reads, with the JSON types they may hold.
_RECORD_TYPES = (
    ("case_id", str),
    ("passed", bool),
    ("attempts_used", int),
    ("final_speedup", (str, type(None))),
)


@dataclass(frozen=True)
class OutcomeSummary:
    """The slice of a task outcome that the metrics consume."""

    case_id: str
    passed: bool
    attempts_used: int
    final_speedup: Fraction | None = None

    @classmethod
    def from_record(cls, record) -> "OutcomeSummary":
        """The summary of one ``outcomes/<case>.json`` record.

        A record that is not an object, a field of the wrong type, or an
        ``attempts_used`` below 1 raises ValueError; ``final_speedup`` may be
        absent.
        """
        if not isinstance(record, dict):
            raise ValueError(f"expected a JSON object, got {type(record).__name__}")
        for name, types in _RECORD_TYPES:
            value = record.get(name)
            # attempts_used, the one int field, counts attempts from 1.
            if not isinstance(value, types) or (
                types is int and (isinstance(value, bool) or value < 1)
            ):
                raise ValueError(f"bad {name}: {value!r}")
        speedup = record.get("final_speedup")
        return cls(
            case_id=record["case_id"],
            passed=record["passed"],
            attempts_used=record["attempts_used"],
            final_speedup=Fraction(speedup) if speedup is not None else None,
        )


def pass_rate(outcomes: Sequence[OutcomeSummary]) -> Fraction:
    """Passing share as a percentage (exact)."""
    if not outcomes:
        raise VecportError("pass rate over zero outcomes is undefined")
    n_passed = sum(1 for o in outcomes if o.passed)
    return Fraction(100 * n_passed, len(outcomes))


def efficiency_score(
    outcomes: Sequence[OutcomeSummary],
    up_limit: int = DEFAULT_UP_LIMIT,
    include_failed: bool = True,
) -> Fraction:
    """Sum of (1 + up_limit - attempts) / up_limit over the scored cases.

    Failed cases score the minimal term (attempts = up_limit) when included.
    Attempt counts outside [1, up_limit] are a contract violation: they mean
    the outcomes were produced under a different budget.
    """
    total = Fraction(0)
    for o in outcomes:
        if o.passed:
            if not 1 <= o.attempts_used <= up_limit:
                raise VecportError(
                    f"{o.case_id}: attempts_used {o.attempts_used} outside [1, {up_limit}]"
                )
            total += Fraction(1 + up_limit - o.attempts_used, up_limit)
        elif include_failed:
            total += Fraction(1, up_limit)
    return total


def bucket_of(value: Fraction) -> str:
    """Band a speedup; the inner band [0.9, 1.1] is parity with native."""
    if value < Fraction(1, 2):
        return "<0.5"
    if value < Fraction(9, 10):
        return "0.5-0.9"
    if value <= Fraction(11, 10):
        return "0.9-1.1"
    if value <= Fraction(2):
        return "1.1-2.0"
    return ">2.0"


@dataclass
class MetricsReport:
    n_total: int
    n_passed: int
    pass_rate: Fraction
    efficiency_score: Fraction
    avg_attempts: Fraction | None
    speedups: dict[str, Fraction]
    speedup_buckets: dict[str, int]
    up_limit: int = DEFAULT_UP_LIMIT
    include_failed: bool = True

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Sequence[OutcomeSummary],
        up_limit: int = DEFAULT_UP_LIMIT,
        include_failed: bool = True,
    ) -> "MetricsReport":
        if not outcomes:
            raise VecportError("cannot build a report from zero outcomes")
        passing = [o for o in outcomes if o.passed]
        speedups = {
            o.case_id: o.final_speedup for o in outcomes if o.final_speedup is not None
        }
        buckets = {b: 0 for b in SPEEDUP_BUCKETS}
        for v in speedups.values():
            buckets[bucket_of(v)] += 1
        return cls(
            n_total=len(outcomes),
            n_passed=len(passing),
            pass_rate=pass_rate(outcomes),
            efficiency_score=efficiency_score(outcomes, up_limit, include_failed),
            avg_attempts=(
                Fraction(sum(o.attempts_used for o in passing), len(passing))
                if passing
                else None
            ),
            speedups=speedups,
            speedup_buckets=buckets,
            up_limit=up_limit,
            include_failed=include_failed,
        )

    def to_json(self) -> str:
        payload = {
            "format": REPORT_FORMAT,
            "n_total": self.n_total,
            "n_passed": self.n_passed,
            "pass_rate": str(self.pass_rate),
            "efficiency_score": str(self.efficiency_score),
            "avg_attempts": str(self.avg_attempts) if self.avg_attempts is not None else None,
            "speedups": {k: str(v) for k, v in sorted(self.speedups.items())},
            "speedup_buckets": {b: self.speedup_buckets.get(b, 0) for b in SPEEDUP_BUCKETS},
            "up_limit": self.up_limit,
            "include_failed": self.include_failed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt1(x: Fraction) -> str:
    return f"{float(x):.1f}"


def render_table(outcomes: Sequence[OutcomeSummary], report: MetricsReport) -> str:
    """Human-readable results: one row per case, then the corpus summary."""
    rows = []
    header = f"{'case':<24} {'passed':<7} {'attempts':>8} {'speedup':>8}"
    rows.append(header)
    rows.append("-" * len(header))
    for o in sorted(outcomes, key=lambda o: o.case_id):
        sp = f"{float(o.final_speedup):.2f}" if o.final_speedup is not None else "-"
        rows.append(
            f"{o.case_id:<24} {'yes' if o.passed else 'no':<7} "
            f"{o.attempts_used:>8} {sp:>8}"
        )
    rows.append("-" * len(header))
    rows.append(
        f"cases: {report.n_total}   passed: {report.n_passed}   "
        f"pass rate: {_fmt1(report.pass_rate)}%"
    )
    avg = _fmt1(report.avg_attempts) if report.avg_attempts is not None else "-"
    failed_note = "included" if report.include_failed else "excluded"
    rows.append(
        f"avg iterations (passing): {avg}   "
        f"efficiency score: {_fmt1(report.efficiency_score)} "
        f"(budget {report.up_limit}, failed cases {failed_note})"
    )
    buckets = "  ".join(f"{b}: {report.speedup_buckets.get(b, 0)}" for b in SPEEDUP_BUCKETS)
    rows.append(f"speedup buckets: {buckets}")
    return "\n".join(rows) + "\n"

