"""Test instruments that check the pipeline from outside it.

``oracle_liveness`` answers the liveness question by brute-force path
enumeration, independently of ``vecport.liveness.solve_liveness``, so the
property tests can cross-check the solver. ``print_function`` emits C from a
parsed statement tree, so the parser tests can check that structure and
use/def sets survive a round trip.

A ``while`` loop is stored as a ``ForNode`` with no init and no step, so
``print_function`` prints every ``ForNode`` that has a condition but neither
init nor step as ``while (cond)``; ``for (;;)`` stays a ``for``.
"""

from __future__ import annotations

from collections import deque

from vecport.errors import AnalysisError
from vecport.liveness import LivenessResult
from vecport.parser import (
    BlockNode,
    DoWhileNode,
    ForNode,
    FunctionIr,
    IfNode,
    JumpNode,
    RawStmt,
)


class PathExplosionError(AnalysisError):
    """The path-enumeration oracle refused: too many paths within the bound."""


def oracle_liveness(
    ir: FunctionIr,
    path_bound: int | None = None,
    max_steps: int = 2_000_000,
) -> LivenessResult:
    """Liveness by explicit path enumeration; independent of the solver.

    A value is live at entry of statement i when some enumerated path starting
    at i reads it before any redefinition; live at exit when such a path
    starts at one of i's successors. Paths longer than ``path_bound``
    statements are not explored, so the result matches the fixpoint whenever
    the bound covers every simple path plus one loop unrolling. Paths that
    reach the same statement having killed the same variables are explored
    once, so the work is bounded by the number of (statement, killed set)
    pairs, not the number of paths. Exceeding
    ``max_steps`` search steps raises PathExplosionError rather than returning
    a truncated answer.
    """
    stmts = ir.stmts
    if not stmts:
        return LivenessResult({}, {})
    succ = ir.successors
    if path_bound is None:
        path_bound = 2 * (len(stmts) + 2)

    uses = {s.stmt_id: s.uses for s in stmts}
    defs = {s.stmt_id: s.defs for s in stmts}
    steps = 0

    def live_from(start: int) -> frozenset[str]:
        nonlocal steps
        found: set[str] = set()
        # Breadth-first over (stmt, vars killed on the way here): every path
        # that reaches a state with the same killed set reads the same values
        # onward, and the first visit is the shallowest, so a revisit can add
        # nothing within the bound.
        seen: set[tuple[int, frozenset[str]]] = {(start, frozenset())}
        queue: deque[tuple[int, frozenset[str], int]] = deque([(start, frozenset(), 1)])
        while queue:
            steps += 1
            if steps > max_steps:
                raise PathExplosionError(
                    f"path enumeration exceeded {max_steps} steps; "
                    f"input too large for the oracle"
                )
            i, killed, depth = queue.popleft()
            found |= uses[i] - killed
            killed = killed | defs[i]
            if depth >= path_bound:
                continue
            for j in succ[i]:
                if (j, killed) not in seen:
                    seen.add((j, killed))
                    queue.append((j, killed, depth + 1))
        return frozenset(found)

    entry_live = {s.stmt_id: live_from(s.stmt_id) for s in stmts}
    live_out = {}
    for s in stmts:
        out: set[str] = set()
        for j in succ[s.stmt_id]:
            out |= entry_live[j]
        live_out[s.stmt_id] = frozenset(out)
    return LivenessResult(entry_live, live_out)


def print_function(ir: FunctionIr) -> str:
    """Emit re-parseable C for the IR; structure and use/def sets survive a round trip."""
    if ir.structure is None:
        raise ValueError("IR was built synthetically; no statement tree to print")
    lines = [f"{ir.signature} {{"]
    _print_block(ir.structure, lines, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_block(node: BlockNode, lines: list[str], depth: int) -> None:
    pad = "    " * depth
    for item in node.items:
        if isinstance(item, RawStmt):
            if item.stmt_id is not None:
                lines.append(f"{pad}{item.text};")
        elif isinstance(item, JumpNode):
            lines.append(f"{pad}{item.kind};")
        elif isinstance(item, BlockNode):
            lines.append(f"{pad}{{")
            _print_block(item, lines, depth + 1)
            lines.append(f"{pad}}}")
        elif isinstance(item, IfNode):
            lines.append(f"{pad}if ({item.cond.text}) {{")
            _print_block(item.then, lines, depth + 1)
            if item.orelse is not None:
                lines.append(f"{pad}}} else {{")
                _print_block(item.orelse, lines, depth + 1)
            lines.append(f"{pad}}}")
        elif isinstance(item, DoWhileNode):
            lines.append(f"{pad}do {{")
            _print_block(item.body, lines, depth + 1)
            lines.append(f"{pad}}} while ({item.cond.text});")
        elif isinstance(item, ForNode):
            if item.cond is not None and item.init is None and item.step is None:
                lines.append(f"{pad}while ({item.cond.text}) {{")
            else:
                init = item.init.text if item.init else ""
                cond = item.cond.text if item.cond else ""
                step = item.step.text if item.step else ""
                lines.append(f"{pad}for ({init}; {cond}; {step}) {{")
            _print_block(item.body, lines, depth + 1)
            lines.append(f"{pad}}}")
        else:
            raise AssertionError(f"unknown node {item!r}")
