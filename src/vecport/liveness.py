"""Backward liveness over the statement flow graph and vector register pressure.

A value is live at a point when some path onward reads it before any
redefinition. The solver iterates

    IN(i)  = (OUT(i) - DEF(i)) | USE(i)
    OUT(i) = union of IN(j) over successor statements j

to a fixpoint over ``FunctionIr.successors``, whose nodes are statements,
as the parser builds it; the solver and ``check_fixpoint`` share it. A
statement that leaves the function has no successor, so nothing is live
after it. The live sets are frozensets throughout: a statement with one
successor takes that successor's IN set itself as its OUT, and only a
statement with two or more successors builds a union. Sets grow monotonically inside a finite universe,
so termination is bounded by |vars| * |stmts| sweeps. Register pressure at a
statement is the sum of the LMUL-weighted footprints of IN(i) | OUT(i).
Every footprint is a whole number of eighths of a register, so the sums are
ints: the weight of each distinct OUT set is computed once, and a statement
adds the weight of IN(i) - OUT(i) to it. ``Fraction``s are made only for the
report, one per distinct value; the report carries the peak across the
function against the 32-register file.

The brute-force path-enumeration oracle that cross-checks the solver lives
in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AnalysisError
from .parser import FunctionIr
from .rvv_types import footprint_eighths

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
    hot_line: int | None = None
    hot_text: str | None = None
    mode: str = "literal"

    def to_text(self) -> str:
        lines = [
            f"peak vector register pressure: {fmt_fraction(self.pressure)} of {REGISTER_BUDGET}",
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
            "register_budget": REGISTER_BUDGET,
            "dead_defs": sorted(self.dead_defs),
            "mode": self.mode,
        }


def fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_NOTHING: frozenset[str] = frozenset()


def _live_after(live_in: dict[int, frozenset[str]], nexts: tuple[int, ...]) -> frozenset[str]:
    """OUT of a statement whose successors are ``nexts``: nothing after a
    statement that leaves the function, one successor's IN set itself, or
    the union of several."""
    if len(nexts) == 1:
        return live_in[nexts[0]]
    if not nexts:
        return _NOTHING
    return _NOTHING.union(*[live_in[j] for j in nexts])


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

    live_in = {s.stmt_id: _NOTHING for s in stmts}
    live_out = dict(live_in)
    uses = {s.stmt_id: s.uses for s in stmts}
    defs = {s.stmt_id: s.defs for s in stmts}

    n_vars = len(ir.symbol_table)
    max_sweeps = n_vars * len(stmts) + 2
    for _ in range(max_sweeps):
        changed = False
        for i in sweep:
            out = _live_after(live_in, succ[i])
            new_in = (out - defs[i]) | uses[i]
            if out != live_out[i] or new_in != live_in[i]:
                live_out[i] = out
                live_in[i] = new_in
                changed = True
        if not changed:
            return LivenessResult(live_in, live_out)
    raise AssertionError("liveness failed to converge within its sweep bound")


def check_fixpoint(ir: FunctionIr, live: LivenessResult) -> None:
    """Raise AnalysisError unless ``live`` satisfies the dataflow equations exactly."""
    succ = ir.successors
    live_in, live_out = live.live_in, live.live_out
    for s in ir.stmts:
        i = s.stmt_id
        out = live_out[i]
        if live_in[i] != (out - s.defs) | s.uses:
            raise AnalysisError(f"liveness not a fixpoint at statement {i} (IN)")
        after = _live_after(live_in, succ[i])
        if out is not after and out != after:
            raise AnalysisError(f"liveness not a fixpoint at statement {i} (OUT)")


def compute_pressure(
    ir: FunctionIr, live: LivenessResult, mode: str = "literal"
) -> PressureReport:
    """Peak register demand per the live sets, plus dead-definition warnings.

    ``mode`` must be one of ``FOOTPRINT_MODES`` (ValueError otherwise, even
    for a function without vectors), and ``live`` a fixpoint for ``ir``
    (checked). A defined-but-unused value appears in no live set and
    therefore costs nothing here; it is surfaced in ``dead_defs`` instead of
    being silently dropped.
    """
    table = footprint_eighths(mode)
    check_fixpoint(ir, live)
    eighths = {name: table[t] for name, t in ir.symbol_table.items()}
    weigh = eighths.__getitem__
    live_in, live_out = live.live_in, live.live_out
    out_weights: dict[frozenset[str], int] = {}
    totals: dict[int, int] = {}
    for s in ir.stmts:
        i = s.stmt_id
        out = live_out[i]
        weight = out_weights.get(out)
        if weight is None:
            weight = out_weights[out] = sum(map(weigh, out))
        totals[i] = weight + sum(map(weigh, live_in[i] - out))

    all_defs = _NOTHING.union(*[s.defs for s in ir.stmts])
    all_uses = _NOTHING.union(*[s.uses for s in ir.stmts])
    dead = all_defs - all_uses

    if totals:
        peak = max(totals.values())
        hot = min(i for i, total in totals.items() if total == peak)
        as_fraction = {n: Fraction(n, 8) for n in {*totals.values(), *eighths.values()}}
        pressure = as_fraction[peak]
        hot_stmt = ir.stmts[hot]
        live_at_hot = frozenset(
            (name, as_fraction[eighths[name]]) for name in live_in[hot] | live_out[hot]
        )
        return PressureReport(
            pressure=pressure,
            hot_stmt=hot,
            per_stmt_pressure={i: as_fraction[total] for i, total in totals.items()},
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
