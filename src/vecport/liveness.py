"""Backward liveness over the statement flow graph and vector register pressure.

A value is live at a point when some path onward reads it before any
redefinition. The solver iterates

    IN(i)  = (OUT(i) - DEF(i)) | USE(i)
    OUT(i) = union of IN(j) over successor statements j

to a fixpoint over ``FunctionIr.successors``, whose nodes are statements,
as the parser builds it. A statement that leaves the function has no
successor, so nothing is live after it. Every live set is a bit vector, one
Python ``int``, over the function's vector names: bit k stands for the k-th
IR name of the symbol table, the bit the parser gave that name in each
statement's use and def masks. The solver reads those masks as they are, so
a step is ``IN = (OUT & ~def) | use`` and a union is an OR; the live sets
are lists indexed by statement id. ``check_fixpoint`` holds the result to
both equations at every statement against the same masks. Sets grow
monotonically inside a finite universe, so termination is bounded by
|vars| * |stmts| sweeps.

Register pressure at a statement is the sum of the LMUL-weighted footprints
of IN(i) | OUT(i). Every footprint is a whole number of eighths of a
register, so the names fall into a few footprint classes, one mask each,
and a statement's total in eighths is the sum over the classes of the
class's eighths times the popcount of the live set masked by it. The
report keeps those totals in eighths and makes ``Fraction``s only for what
it prints: the peak across the function, against the 32-register file, and
the footprints live at the hot statement, whose live set is turned back
into names once. The dead definitions are the bits some statement defines
and none uses.

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
    """Live sets indexed by statement id, as bit vectors: bit k stands for the
    k-th IR name of the symbol table (``FunctionIr.names_in`` decodes one)."""

    live_in: list[int]
    live_out: list[int]


@dataclass
class PressureReport:
    """Peak LMUL-weighted demand on the vector register file."""

    pressure: Fraction
    hot_stmt: int | None
    stmt_eighths: dict[int, int]  # each statement's demand, in eighths of a register
    live_at_hot: frozenset[tuple[str, Fraction]]
    dead_defs: frozenset[str]
    spills_predicted: bool
    hot_line: int | None
    hot_text: str | None
    mode: str

    @property
    def per_stmt_pressure(self) -> dict[int, Fraction]:
        return {i: Fraction(n, 8) for i, n in self.stmt_eighths.items()}

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


def _live_after(live_in: list[int], nexts: tuple[int, ...]) -> int:
    """OUT of a statement whose successors are ``nexts``: the OR of their IN
    sets, nothing after a statement that leaves the function."""
    out = 0
    for j in nexts:
        out |= live_in[j]
    return out


def solve_liveness(ir: FunctionIr, order: Sequence[int] | None = None) -> LivenessResult:
    """Iterate the dataflow equations to a fixpoint.

    ``order`` picks the statement iteration order inside each sweep; the
    fixpoint is the same for any order (reverse layout order converges
    fastest and is the default).
    """
    stmts = ir.stmts
    succ = ir.successors
    sweep = range(len(stmts) - 1, -1, -1) if order is None else list(order)
    # Indexed by statement id: ids are positions in layout order.
    uses = [s.uses for s in stmts]
    kills = [~s.defs for s in stmts]
    live_in = [0] * len(stmts)
    live_out = [0] * len(stmts)

    max_sweeps = len(ir.symbol_table) * len(stmts) + 2
    for _ in range(max_sweeps):
        changed = False
        for i in sweep:
            nexts = succ[i]
            if len(nexts) == 1:
                out = live_in[nexts[0]]
            else:
                out = _live_after(live_in, nexts)
            new_in = (out & kills[i]) | uses[i]
            if out != live_out[i] or new_in != live_in[i]:
                live_out[i] = out
                live_in[i] = new_in
                changed = True
        if not changed:
            return LivenessResult(live_in, live_out)
    raise AssertionError("liveness failed to converge within its sweep bound")


def check_fixpoint(ir: FunctionIr, live: LivenessResult) -> None:
    """Raise AnalysisError unless ``live`` satisfies the dataflow equations exactly.

    Both equations are checked at every statement, against the statements'
    own use and def masks.
    """
    succ = ir.successors
    live_in, live_out = live.live_in, live.live_out
    for s in ir.stmts:
        i = s.stmt_id
        out = live_out[i]
        if live_in[i] != (out & ~s.defs) | s.uses:
            raise AnalysisError(f"liveness not a fixpoint at statement {i} (IN)")
        if out != _live_after(live_in, succ[i]):
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
    eighths = {name: table[vt] for name, vt in ir.symbol_table.items()}  # in bit order
    classes: dict[int, int] = {}  # eighths -> the mask of the names with that footprint
    for k, weight in enumerate(eighths.values()):
        classes[weight] = classes.get(weight, 0) | 1 << k
    stmts = ir.stmts
    live_in, live_out = live.live_in, live.live_out
    live_both = [a | b for a, b in zip(live_in, live_out)]  # by statement id
    totals = [0] * len(stmts)
    for weight, mask in classes.items():
        totals = [t + weight * (b & mask).bit_count() for t, b in zip(totals, live_both)]
    used = defined = 0
    for s in stmts:
        used |= s.uses
        defined |= s.defs
    peak = max(totals, default=0)
    # The first statement at the peak, so the smallest id on a tie; none if there is no statement.
    hot = stmts[totals.index(peak)] if totals else None
    hot_live = live_in[hot.stmt_id] | live_out[hot.stmt_id] if hot else 0
    class_fp = {weight: Fraction(weight, 8) for weight in classes}
    return PressureReport(
        pressure=Fraction(peak, 8),
        hot_stmt=hot.stmt_id if hot else None,
        stmt_eighths=dict(enumerate(totals)),
        live_at_hot=frozenset((name, class_fp[eighths[name]]) for name in ir.names_in(hot_live)),
        dead_defs=ir.names_in(defined & ~used),
        spills_predicted=peak > REGISTER_BUDGET * 8,
        hot_line=hot.line if hot else None,
        hot_text=hot.text if hot else None,
        mode=mode,
    )


def analyze_source(source: str, signature: str, mode: str = "literal") -> PressureReport:
    """Parse, solve, and report in one call; the CLI and optimizer prompt path."""
    from .parser import parse_function

    ir = parse_function(source, signature)
    live = solve_liveness(ir)
    return compute_pressure(ir, live, mode)
