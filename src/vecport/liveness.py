"""Backward liveness over the statement-level CFG and vector register pressure.

A value is live at a point when some path onward reads it before any
redefinition. The solver iterates

    IN(i)  = (OUT(i) - DEF(i)) | USE(i)
    OUT(i) = union of IN(j) over successor statements j

to a fixpoint over the statement edges of ``FunctionIr.successors``, which
the solver and ``check_fixpoint`` share. A statement that leaves the
function has no successor there, so nothing is live after it. Sets grow
monotonically inside a finite universe, so termination is bounded by
|vars| * |stmts| sweeps. Register pressure at a statement is the sum of the
LMUL-weighted footprints of IN(i) | OUT(i), each symbol's footprint computed
once. Every footprint is a whole number of eighths of a register, so the sum
is taken in integer eighths and stored as one exact ``Fraction`` per
statement; the report carries the peak across the function against the
32-register file.

The brute-force path-enumeration oracle that cross-checks the solver lives
in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AnalysisError
from .parser import FunctionIr
from .rvv_types import register_footprint

REGISTER_BUDGET = 32


@dataclass
class LivenessResult:
    live_in: dict[int, frozenset[str]]
    live_out: dict[int, frozenset[str]]


@dataclass
class PressureReport:
    """Peak LMUL-weighted demand on the vector register file."""

    pressure: Fraction
    hot_stmt: int | None
    per_stmt_pressure: dict[int, Fraction]
    live_at_hot: frozenset[tuple[str, Fraction]]
    dead_defs: frozenset[str]
    spills_predicted: bool
    register_budget: int = REGISTER_BUDGET
    hot_line: int | None = None
    hot_text: str | None = None
    mode: str = "literal"

    def to_text(self) -> str:
        lines = [
            f"peak vector register pressure: {fmt_fraction(self.pressure)} of {self.register_budget}",
        ]
        if self.hot_stmt is not None:
            where = f"statement {self.hot_stmt}"
            if self.hot_line is not None:
                where += f" (line {self.hot_line})"
            lines.append(f"hot statement: {where}: {self.hot_text or ''}".rstrip())
            live = ", ".join(
                f"{name}={fmt_fraction(fp)}" for name, fp in sorted(self.live_at_hot)
            )
            lines.append(f"live there: {live or '(none)'}")
        if self.spills_predicted:
            lines.append("verdict: demand exceeds the register file; spills likely")
        else:
            lines.append("verdict: fits in the register file")
        if self.dead_defs:
            lines.append(
                "warning: defined but never used: " + ", ".join(sorted(self.dead_defs))
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "pressure": str(self.pressure),
            "hot_stmt": self.hot_stmt,
            "spills_predicted": self.spills_predicted,
            "register_budget": self.register_budget,
            "dead_defs": sorted(self.dead_defs),
            "mode": self.mode,
        }


def fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def solve_liveness(ir: FunctionIr, order: Sequence[int] | None = None) -> LivenessResult:
    """Iterate the dataflow equations to a fixpoint.

    ``order`` picks the statement iteration order inside each sweep; the
    fixpoint is the same for any order (reverse layout order converges
    fastest and is the default).
    """
    stmts = ir.stmts
    if not stmts:
        return LivenessResult({}, {})
    succ = ir.successors
    if order is None:
        sweep = [s.stmt_id for s in reversed(stmts)]
    else:
        sweep = list(order)

    live_in: dict[int, frozenset[str]] = {s.stmt_id: frozenset() for s in stmts}
    live_out: dict[int, frozenset[str]] = {s.stmt_id: frozenset() for s in stmts}
    uses = {s.stmt_id: s.uses for s in stmts}
    defs = {s.stmt_id: s.defs for s in stmts}

    n_vars = len(ir.symbol_table)
    max_sweeps = n_vars * len(stmts) + 2
    for _ in range(max_sweeps):
        changed = False
        for i in sweep:
            out: set[str] = set()
            for j in succ[i]:
                out |= live_in[j]
            new_out = frozenset(out)
            new_in = frozenset((new_out - defs[i]) | uses[i])
            if new_out != live_out[i] or new_in != live_in[i]:
                live_out[i] = new_out
                live_in[i] = new_in
                changed = True
        if not changed:
            return LivenessResult(live_in, live_out)
    raise AssertionError("liveness failed to converge within its sweep bound")


def check_fixpoint(ir: FunctionIr, live: LivenessResult) -> None:
    """Raise AnalysisError unless ``live`` satisfies the dataflow equations exactly."""
    succ = ir.successors
    for s in ir.stmts:
        i = s.stmt_id
        expected_in = (live.live_out[i] - s.defs) | s.uses
        if live.live_in[i] != expected_in:
            raise AnalysisError(f"liveness not a fixpoint at statement {i} (IN)")
        out: set[str] = set()
        for j in succ[i]:
            out |= live.live_in[j]
        if live.live_out[i] != frozenset(out):
            raise AnalysisError(f"liveness not a fixpoint at statement {i} (OUT)")


def compute_pressure(
    ir: FunctionIr, live: LivenessResult, mode: str = "literal"
) -> PressureReport:
    """Peak register demand per the live sets, plus dead-definition warnings.

    ``live`` must be a fixpoint for ``ir`` (checked). A defined-but-unused
    value appears in no live set and therefore costs nothing here; it is
    surfaced in ``dead_defs`` instead of being silently dropped.
    """
    check_fixpoint(ir, live)
    footprint = {name: register_footprint(t, mode) for name, t in ir.symbol_table.items()}
    # Every legal LMUL is a multiple of 1/8, so each footprint is a whole
    # number of eighths of a register and the sums can be done in ints.
    eighths = {name: int(fp * 8) for name, fp in footprint.items()}
    live_in, live_out = live.live_in, live.live_out
    totals = {
        s.stmt_id: sum(eighths[name] for name in live_in[s.stmt_id] | live_out[s.stmt_id])
        for s in ir.stmts
    }
    per_stmt = {i: Fraction(total, 8) for i, total in totals.items()}

    all_defs: set[str] = set()
    all_uses: set[str] = set()
    for s in ir.stmts:
        all_defs |= s.defs
        all_uses |= s.uses
    dead = frozenset(all_defs - all_uses)

    if totals:
        peak = max(totals.values())
        hot = min(i for i, total in totals.items() if total == peak)
        pressure = per_stmt[hot]
        hot_stmt = ir.stmt(hot)
        live_at_hot = frozenset(
            (name, footprint[name]) for name in live.live_in[hot] | live.live_out[hot]
        )
        return PressureReport(
            pressure=pressure,
            hot_stmt=hot,
            per_stmt_pressure=per_stmt,
            live_at_hot=live_at_hot,
            dead_defs=dead,
            spills_predicted=pressure > REGISTER_BUDGET,
            hot_line=hot_stmt.line,
            hot_text=hot_stmt.text,
            mode=mode,
        )
    return PressureReport(
        pressure=Fraction(0),
        hot_stmt=None,
        per_stmt_pressure={},
        live_at_hot=frozenset(),
        dead_defs=dead,
        spills_predicted=False,
        mode=mode,
    )


def analyze_source(source: str, signature: str, mode: str = "literal") -> PressureReport:
    """Parse, solve, and report in one call; the CLI and optimizer prompt path."""
    from .parser import parse_function

    ir = parse_function(source, signature)
    live = solve_liveness(ir)
    return compute_pressure(ir, live, mode)
