"""Backward liveness over the statement flow graph and vector register pressure.

A value is live at a point when some path onward reads it before any
redefinition. The solver iterates

    IN(i)  = (OUT(i) - DEF(i)) | USE(i)
    OUT(i) = union of IN(j) over successor statements j

to a fixpoint over ``FunctionIr.successors``, whose nodes are statements,
as the parser builds it; the solver and ``check_fixpoint`` share it. A
statement that leaves the function has no successor, so nothing is live
after it. Every live set is a bit vector, one Python ``int``, over the
function's vector names: bit k stands for ``names[k]``, the k-th IR name of
the symbol table. Each statement has a use mask and a kill mask (every bit
but its definitions), so a step is ``IN = (OUT & kill) | use`` and a union
is an OR. Sets grow monotonically inside a finite universe, so termination
is bounded by |vars| * |stmts| sweeps.

Register pressure at a statement is the sum of the LMUL-weighted footprints
of IN(i) | OUT(i). Every footprint is a whole number of eighths of a
register, so the names fall into a few footprint classes, one mask each,
and a statement's total in eighths is the sum over the classes of the
class's eighths times the popcount of the live set masked by it. The
report keeps those totals in eighths and makes ``Fraction``s only for what
it prints: the peak across the function, against the 32-register file, and
the footprints live at the hot statement, whose live set is turned back
into names once. The dead definitions are found from the statements' own
name sets.

The brute-force path-enumeration oracle that cross-checks the solver lives
in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AnalysisError
from .parser import FunctionIr, Stmt
from .rvv_types import footprint_eighths

REGISTER_BUDGET = 32


@dataclass
class LivenessResult:
    """Live sets by statement id, as bit vectors: bit k stands for ``names[k]``."""

    names: tuple[str, ...]
    live_in: dict[int, int]
    live_out: dict[int, int]


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


def _masks(stmts: Sequence[Stmt], names: Sequence[str]) -> tuple[dict[int, int], dict[int, int]]:
    """Each statement's use and def masks over ``names``, by statement id."""
    bit = {name: 1 << k for k, name in enumerate(names)}.__getitem__
    # A frozenset holds each name once and the bits are distinct, so a sum is their OR.
    uses = {s.stmt_id: sum(map(bit, s.uses)) for s in stmts}
    defs = {s.stmt_id: sum(map(bit, s.defs)) for s in stmts}
    return uses, defs


def _bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _live_after(live_in: dict[int, int], nexts: tuple[int, ...]) -> int:
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
    names = tuple(ir.symbol_table)
    if not stmts:
        return LivenessResult(names, {}, {})
    succ = ir.successors
    if order is None:
        sweep = [s.stmt_id for s in reversed(stmts)]
    else:
        sweep = list(order)

    uses, defs = _masks(stmts, names)
    kills = {i: ~d for i, d in defs.items()}
    live_in = dict.fromkeys(uses, 0)
    live_out = dict(live_in)

    max_sweeps = len(names) * len(stmts) + 2
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
            return LivenessResult(names, live_in, live_out)
    raise AssertionError("liveness failed to converge within its sweep bound")


def check_fixpoint(ir: FunctionIr, live: LivenessResult) -> None:
    """Raise AnalysisError unless ``live`` satisfies the dataflow equations exactly.

    The masks are built afresh from ``ir.stmts`` and ``live.names``.
    """
    succ = ir.successors
    uses, defs = _masks(ir.stmts, live.names)
    live_in, live_out = live.live_in, live.live_out
    for i in uses:
        out = live_out[i]
        if live_in[i] != (out & ~defs[i]) | uses[i]:
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
    names = live.names
    eighths = [table[ir.symbol_table[name]] for name in names]
    classes: dict[int, int] = {}  # eighths -> the mask of the names with that footprint
    for k, weight in enumerate(eighths):
        classes[weight] = classes.get(weight, 0) | 1 << k
    stmts = ir.stmts
    ids = [s.stmt_id for s in stmts]
    live_in, live_out = live.live_in, live.live_out
    live_both = [live_in[i] | live_out[i] for i in ids]
    totals = [0] * len(ids)
    for weight, mask in classes.items():
        totals = [t + weight * (b & mask).bit_count() for t, b in zip(totals, live_both)]
    dead = frozenset().union(*[s.defs for s in stmts]).difference(*[s.uses for s in stmts])
    peak = max(totals, default=0)
    # The first statement at the peak, so the smallest id on a tie; none if there is no statement.
    hot = stmts[totals.index(peak)] if totals else None
    hot_live = live_in[hot.stmt_id] | live_out[hot.stmt_id] if hot else 0
    class_fp = {weight: Fraction(weight, 8) for weight in classes}
    return PressureReport(
        pressure=Fraction(peak, 8),
        hot_stmt=hot.stmt_id if hot else None,
        stmt_eighths=dict(zip(ids, totals)),
        live_at_hot=frozenset((names[k], class_fp[eighths[k]]) for k in _bit_indices(hot_live)),
        dead_defs=dead,
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
