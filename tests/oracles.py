"""Test instruments that check the pipeline from outside it.

``oracle_liveness`` answers the liveness question by brute-force path
enumeration, independently of ``vecport.liveness.solve_liveness``, so the
property tests can cross-check the solver.

``reference_parse`` is the two-pass front end that ``vecport.parser``
replaced with a one-pass one: ``TreeParser`` reads a function body into a
statement tree, and ``_CfgBuilder`` walks that tree into basic blocks. Both
are kept here in step with the pipeline's behaviour, so the differential
tests can check that the one-pass parser gives the same IR and the same
errors. The reference shares the lexer, the scoped statement readers
(``_Scopes``, which resolve each name as it is read) and the pruning and
renumbering of ``build_cfg`` with the pipeline, and opens and closes scopes
at the same places: each nested ``{`` block, each ``for`` and each branch or
loop body. It differs in how statements reach their blocks. One difference
is by design: the reference reports a ``break`` or ``continue`` outside a
loop only after the whole body has parsed, while the one-pass parser
reports it where it stands, so with two errors in a body the two may name
different ones.

``print_function`` emits C from the reference tree, so the parser tests can
check that structure and use/def sets survive a round trip; it reads the
function's declarator from the source itself. A ``while`` loop is stored as
a ``ForNode`` with no init and no step, so ``print_function`` prints every
``ForNode`` that has a condition but neither init nor step as
``while (cond)``; ``for (;;)`` stays a ``for``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from vecport.errors import AnalysisError, ParseError
from vecport.liveness import LivenessResult
from vecport.parser import (
    FunctionIr,
    Stmt,
    Token,
    _CLOSERS,
    _KEYWORDS,
    _Scopes,
    _cond_stmt,
    _find_function,
    _parse_params,
    _parse_simple,
    _render_tokens,
    _top_level,
    build_cfg,
    signature_name,
    tokenize,
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


# ---------------------------------------------------------------------------
# The reference front end: a statement tree, then its layout into blocks.


@dataclass
class JumpNode:
    kind: str  # break | continue
    line: int


@dataclass
class BlockNode:
    items: list = field(default_factory=list)  # Stmt, JumpNode or a nested node


@dataclass
class IfNode:
    cond: Stmt
    then: BlockNode
    orelse: BlockNode | None


@dataclass
class DoWhileNode:
    body: BlockNode
    cond: Stmt


@dataclass
class ForNode:
    """A ``for`` loop; a ``while`` loop is one with no init and no step."""

    init: Stmt | None
    cond: Stmt | None
    step: Stmt | None
    body: BlockNode


class TreeParser:
    """Reads a function body into a statement tree; the reference body parser.

    Scopes open and close where the one-pass parser opens and closes them:
    at each nested ``{`` block, at each ``for`` and around each branch or
    loop body.
    """

    def __init__(self, tokens: list[Token], scopes: _Scopes):
        self.toks = tokens
        self.pos = 0
        self.scopes = scopes

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", line=tok.line)
        return self.advance()

    def _collect_until(self, stop: str) -> list[Token]:
        """Tokens up to an unnested ``stop``; consumes the stop token.

        Braces nest too: mid-statement they can only be initializer lists or
        compound literals, never block structure. The closer of the block
        being parsed is always reached at top level, so the walk ends there
        if not before.
        """
        toks = self.toks
        start = self.pos
        for i in _top_level(toks, start):
            text = toks[i].text
            if text == stop:
                self.pos = i + 1
                return toks[start:i]
            if text in _CLOSERS:
                raise ParseError(f"expected {stop!r} before {text!r}", line=toks[i].line)

    def parse_block(self) -> BlockNode:
        self.expect("{")
        node = BlockNode()
        while self.peek().text != "}":
            item = self.parse_statement()
            if item is not None:
                node.items.append(item)
        self.expect("}")
        return node

    def _parse_body(self) -> BlockNode:
        """A loop or branch body, in a scope of its own: a block, or one
        statement as a block."""
        self.scopes.open()
        item = self.parse_statement()
        self.scopes.close()
        if isinstance(item, BlockNode):
            return item
        return BlockNode([] if item is None else [item])

    def _parse_cond(self, keyword: str) -> Stmt:
        """``keyword ( cond )``; the condition is placed at the keyword."""
        tok = self.expect(keyword)
        self.expect("(")
        return _cond_stmt(self._collect_until(")"), tok, self.scopes)

    def parse_statement(self):
        tok = self.peek()
        if tok.text in ("goto", "switch"):
            raise ParseError(f"unsupported construct: {tok.text}", line=tok.line)
        if tok.text in ("case", "default"):
            raise ParseError(f"unsupported construct: {tok.text} label", line=tok.line)
        # An identifier is never the body's last token, its '}', so one follows.
        if tok.kind == "id" and tok.text not in _KEYWORDS and self.toks[self.pos + 1].text == ":":
            raise ParseError(f"unsupported construct: label '{tok.text}'", line=tok.line)

        if tok.text == "{":
            self.scopes.open()
            node = self.parse_block()
            self.scopes.close()
            return node
        if tok.text == ";":
            self.advance()
            return None
        if tok.text == "if":
            cond = self._parse_cond("if")
            then = self._parse_body()
            orelse = None
            if self.peek().text == "else":
                self.advance()
                orelse = self._parse_body()
            return IfNode(cond, then, orelse)
        if tok.text == "while":
            cond = self._parse_cond("while")
            return ForNode(None, cond, None, self._parse_body())
        if tok.text == "do":
            self.advance()
            body = self._parse_body()
            cond = self._parse_cond("while")
            self.expect(";")
            return DoWhileNode(body, cond)
        if tok.text == "for":
            return self._parse_for()
        if tok.text == "return":
            self.advance()
            expr = self._collect_until(";")
            uses = frozenset(self.scopes.reads(expr, tok.line))
            return Stmt("return", uses, frozenset(), tok.line, expr)
        if tok.text in ("break", "continue"):
            self.advance()
            self.expect(";")
            return JumpNode(tok.text, tok.line)
        return _parse_simple(self._collect_until(";"), self.scopes)

    def _parse_for(self) -> ForNode:
        tok = self.expect("for")
        self.expect("(")
        self.scopes.open()
        init = self._collect_until(";")
        init = _parse_simple(init, self.scopes) if init else None
        cond = self._collect_until(";")
        cond = _cond_stmt(cond, tok, self.scopes) if cond else None
        step = self._collect_until(")")
        step = _parse_simple(step, self.scopes) if step else None
        node = ForNode(init, cond, step, self._parse_body())
        self.scopes.close()
        return node


class _CfgBuilder:
    """Lays a statement tree out into basic blocks, as ``build_cfg`` expects them."""

    def __init__(self):
        self.block_stmts: dict[int, list[Stmt]] = {}
        self.succs: dict[int, list[int]] = {}
        self.next_block = 0
        self.current: int | None = None
        self.loop_stack: list[dict[str, list[int]]] = []  # break/continue sources

    def new_block(self) -> int:
        bid = self.next_block
        self.next_block += 1
        self.block_stmts[bid] = []
        self.succs[bid] = []
        return bid

    def edge(self, a: int, b: int) -> None:
        if b not in self.succs[a]:
            self.succs[a].append(b)

    def link(self, sources: list[int | None], target: int) -> None:
        """Edges into ``target`` from each source that is still reachable."""
        for src in sources:
            if src is not None:
                self.edge(src, target)

    def ensure_current(self) -> int:
        if self.current is None:
            self.current = self.new_block()  # unreachable; pruned later
        return self.current

    def emit(self, stmt: Stmt) -> None:
        self.block_stmts[self.ensure_current()].append(stmt)

    def walk(self, node) -> None:
        if isinstance(node, Stmt):
            self.emit(node)
            if node.kind == "return":
                self.return_sources.append(self.current)
                self.current = None
        elif isinstance(node, BlockNode):
            for item in node.items:
                self.walk(item)
        elif isinstance(node, JumpNode):
            if not self.loop_stack:
                raise ParseError(f"{node.kind} outside a loop", line=node.line)
            self.loop_stack[-1][node.kind].append(self.ensure_current())
            self.current = None
        elif isinstance(node, IfNode):
            self.emit(node.cond)
            cond_block = self.current
            # Without an else, a false condition goes straight to the join.
            ends = [] if node.orelse is not None else [cond_block]
            for branch in (node.then, node.orelse):
                if branch is not None:
                    self.current = self.new_block()
                    self.edge(cond_block, self.current)
                    self.walk(branch)
                    ends.append(self.current)
            self.current = self.new_block()
            self.link(ends, self.current)
        elif isinstance(node, DoWhileNode):
            pre = self.ensure_current()
            body_entry = self.new_block()
            self.edge(pre, body_entry)
            jumps = {"break": [], "continue": []}
            self.loop_stack.append(jumps)
            self.current = body_entry
            self.walk(node.body)
            self.loop_stack.pop()
            cond_block = self.new_block()
            self.link([self.current, *jumps["continue"]], cond_block)
            self.current = cond_block
            self.emit(node.cond)
            self.edge(cond_block, body_entry)
            self.current = self.new_block()
            self.link([cond_block, *jumps["break"]], self.current)
        elif isinstance(node, ForNode):
            self.ensure_current()
            if node.init is not None:
                self.emit(node.init)
            header = self.new_block()
            self.edge(self.current, header)
            self.current = header
            if node.cond is not None:
                self.emit(node.cond)
            jumps = {"break": [], "continue": []}
            self.loop_stack.append(jumps)
            self.current = self.new_block()
            self.edge(header, self.current)
            self.walk(node.body)
            self.loop_stack.pop()
            back = [self.current, *jumps["continue"]]
            if node.step is None:
                self.link(back, header)
            else:
                self.current = self.new_block()
                self.link(back, self.current)
                self.emit(node.step)
                self.edge(self.current, header)
            # Taken even with an empty condition: liveness may-analysis only
            # gains safety from a conservative loop-exit edge.
            self.current = self.new_block()
            self.link([header, *jumps["break"]], self.current)
        else:
            raise AssertionError(f"unknown structure node {node!r}")

    def build(self, structure: BlockNode) -> tuple[dict[int, list[int]],
                                                   dict[int, list[Stmt]], int, int]:
        """Blocks numbered in layout order; the exit block comes last."""
        self.return_sources: list[int] = []
        entry = self.new_block()
        self.current = entry
        self.walk(structure)
        exit_block = self.new_block()
        if self.current is not None:
            self.edge(self.current, exit_block)
        for src in self.return_sources:
            self.edge(src, exit_block)
        return self.succs, self.block_stmts, entry, exit_block


def reference_parse(source: str, signature: str) -> tuple[FunctionIr, BlockNode]:
    """``vecport.parser.parse_function`` by way of a statement tree; the IR and the tree."""
    name = signature_name(signature)
    tokens = tokenize(source)
    body_open, paren_open = _find_function(tokens, name)
    scopes = _Scopes()
    _parse_params(tokens[paren_open + 1:body_open - 1], scopes)
    body_close = body_open + tokens[body_open].span
    try:
        structure = TreeParser(tokens[body_open:body_close + 1], scopes).parse_block()
        cfg, stmts = build_cfg(*_CfgBuilder().build(structure))
    except RecursionError:
        raise ParseError("nesting too deep") from None
    ir = FunctionIr(name=name, symbol_table=scopes.table, stmts=stmts, cfg=cfg)
    return ir, structure


def _signature_text(source: str, name: str) -> str:
    """The declarator of the definition of ``name``: its tokens after the
    last top-level ';' or '{...}' group before it, up to the body."""
    tokens = tokenize(source)
    body_open, paren_open = _find_function(tokens, name)
    start = 0
    for i in _top_level(tokens[:paren_open]):
        if tokens[i].text == "{":
            start = i + tokens[i].span + 1
        elif tokens[i].text == ";":
            start = i + 1
    return _render_tokens(tokens[start:body_open])


def print_function(source: str, signature: str) -> str:
    """Re-parseable C for the function: the reference tree, printed.

    Structure and use/def sets survive a round trip; statements the layout
    found unreachable are left out.
    """
    ir, structure = reference_parse(source, signature)
    lines = [f"{_signature_text(source, ir.name)} {{"]
    _print_block(structure, lines, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_block(node: BlockNode, lines: list[str], depth: int) -> None:
    pad = "    " * depth
    for item in node.items:
        if isinstance(item, Stmt):
            if item.stmt_id >= 0:
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
