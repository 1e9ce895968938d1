"""Test instruments that check the pipeline from outside it.

``oracle_liveness`` answers the liveness question by brute-force path
enumeration, independently of ``vecport.liveness.solve_liveness``, so the
property tests can cross-check the solver. It computes with names, as
``LiveSets``; ``live_sets`` turns the solver's bit vectors into the same
form, for the tests that compare or corrupt live sets.

``reference_tokenize`` is the lexer that ``vecport.parser.tokenize``
replaced: one ``finditer`` match and one ``Token``, kind included, per
piece. The differential lexer test checks that both give the same (text,
line, span) triples or the same error, and that each reference kind
follows from its token's first character, as the parser reads kinds.

``reference_parse`` is the multi-pass front end that ``vecport.parser``
replaced with a one-pass one: ``TreeParser`` reads a function body into a
statement tree, ``_CfgBuilder`` walks that tree into basic blocks, and
``link_statements`` keeps the blocks reachable from the entry, numbers
their statements in layout order and gives each statement its successors,
passing through empty blocks by a least fixpoint. All three are kept here
in step with the pipeline's behaviour, so the differential tests can check
that the one-pass parser, which wires each statement's successors as it
reads it, gives the same IR and the same errors; the two derive the
successors independently. The reference reads the pipeline's token columns,
as ``(lo, hi)`` ranges, and shares with it only the scoped statement
readers (``_Scopes``, which resolve each name as it is read). It opens and
closes scopes at the same places as the pipeline: each nested ``{`` block,
each ``for`` and each branch or loop body. One difference is by design: the
reference reports a ``break`` or ``continue`` outside a loop only after the
whole body has parsed, while the one-pass parser reports it where it
stands, so with two errors in a body the two may name different ones.

``print_function`` emits C from the reference tree, so the parser tests can
check that structure and use/def sets survive a round trip; it reads the
function's declarator from the source itself. A ``while`` loop is stored as
a ``ForNode`` with no init and no step, so ``print_function`` prints every
``ForNode`` that has a condition but neither init nor step as
``while (cond)``; ``for (;;)`` stays a ``for``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from vecport.errors import AnalysisError, ParseError
from vecport.liveness import LivenessResult
from vecport.parser import (
    FunctionIr,
    Stmt,
    Tokens,
    _CLOSERS,
    _ID_START,
    _KEYWORDS,
    _Scopes,
    _cond_stmt,
    _find_function,
    _parse_params,
    _parse_simple,
    _render_tokens,
    _top_level,
    signature_name,
    tokenize,
)


class PathExplosionError(AnalysisError):
    """The path-enumeration oracle refused: too many paths within the bound."""


class LiveSets(NamedTuple):
    """Live sets as frozensets of IR names, by statement id."""

    live_in: dict[int, frozenset[str]]
    live_out: dict[int, frozenset[str]]


def live_sets(ir: FunctionIr, live: LivenessResult) -> LiveSets:
    """The solver's bit-vector live sets for ``ir`` as names."""
    return LiveSets(*({i: ir.names_in(m) for i, m in enumerate(sets)}
                      for sets in (live.live_in, live.live_out)))


def oracle_liveness(
    ir: FunctionIr,
    path_bound: int | None = None,
    max_steps: int = 2_000_000,
) -> LiveSets:
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
        return LiveSets({}, {})
    succ = ir.successors
    if path_bound is None:
        path_bound = 2 * (len(stmts) + 2)

    uses = {s.stmt_id: ir.names_in(s.uses) for s in stmts}
    defs = {s.stmt_id: ir.names_in(s.defs) for s in stmts}
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
    return LiveSets(entry_live, live_out)


# ---------------------------------------------------------------------------
# The reference lexer: one match object per piece, one Token per token.

# Multi-character operators first so the master regex prefers them.
_OPERATORS = [
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]

# One master pattern whose matches tile the source, so ``finditer`` walks it
# with one match per piece. The directive alternative comes first, on its own:
# it starts a line after spaces or tabs only and runs on through lines
# continued by a backslash (LF or CRLF). Every other alternative shares one
# blank-run prefix: a newline, a comment, the end (trailing blanks),
# ``unclosed`` (a ``/*`` that no ``*/`` closes), a token, or ``bad``, one
# character that starts nothing. Brackets have alternatives of their own, so
# only they take the pairing branch of ``tokenize``. A string or char literal
# ends on its line: neither a raw newline nor a backslash-newline continues it.
_LEX_RE = re.compile(
    r"""
    (?P<directive>(?m:^)[ \t]*\#(?:[^\n]*\\[ \t]*\r?\n)*[^\n]*)
  | [ \t\r\f\v]*
    (?: (?P<newline>\n)
      | (?P<comment>//[^\n]* | /\*(?s:.*?)\*/)
      | (?P<end>\Z)
      | (?P<unclosed>/\*)
      | (?P<id>[A-Za-z_]\w*)
      | (?P<num>0[xX][0-9a-fA-F]+[uUlL]*|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fFuUlL]*)
      | (?P<str>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
      | (?P<opener>[(\[{])
      | (?P<closer>[)\]}])
      | (?P<punct>""" + "|".join(re.escape(op) for op in _OPERATORS) + r"""
          | [;,\.\+\-\*/%<>=!&\|\^~\?:])
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)
_TOKEN_KINDS = frozenset({"id", "num", "str", "punct"})
_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
_GROUP_NAME = {"(": "parentheses", "[": "brackets", "{": "braces"}


@dataclass(slots=True)
class Token:
    text: str
    kind: str  # id | num | str | punct
    line: int
    span: int = 0  # an opening bracket's offset to its closer; 0 otherwise


def reference_tokenize(source: str) -> list[Token]:
    """The tokens of ``source``, each opening bracket paired with its closer."""
    tokens = []
    openers = []  # indices of the brackets still open, innermost last
    line = 1
    for m in _LEX_RE.finditer(source):
        kind = m.lastgroup
        if kind in _TOKEN_KINDS:
            tokens.append(Token(m[kind], kind, line))
        elif kind == "newline":
            line += 1
        elif kind == "opener":
            openers.append(len(tokens))
            tokens.append(Token(m[kind], "punct", line))
        elif kind == "closer":
            text = m[kind]
            if not openers or _CLOSER_OF[tokens[openers[-1]].text] != text:
                raise ParseError(f"mismatched {text!r}", line=line)
            opened = openers.pop()
            tokens[opened].span = len(tokens) - opened
            tokens.append(Token(text, "punct", line))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line=line)
        elif kind == "unclosed":
            raise ParseError("unterminated block comment", line=line)
        else:  # directive, comment or end: skipped, but may span lines
            line += m[kind].count("\n")
    if openers:
        tok = tokens[openers[-1]]
        raise ParseError(f"unbalanced {_GROUP_NAME[tok.text]}", line=tok.line)
    return tokens


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

    def __init__(self, toks: Tokens, start: int, scopes: _Scopes):
        self.toks = toks
        self.texts, self.lines, self.spans = toks
        self.pos = start
        self.scopes = scopes

    def peek(self) -> str:
        return self.texts[self.pos]

    def expect(self, text: str) -> int:
        """Consumes ``text``; its index."""
        at = self.pos
        if self.texts[at] != text:
            raise ParseError(f"expected {text!r}, found {self.texts[at]!r}",
                             line=self.lines[at])
        self.pos += 1
        return at

    def _collect_until(self, stop: str) -> tuple[int, int]:
        """The range of tokens up to an unnested ``stop``; consumes the stop token.

        Braces nest too: mid-statement they can only be initializer lists or
        compound literals, never block structure. The closer of the block
        being parsed is always reached at top level, so the walk ends there
        if not before.
        """
        texts, start = self.texts, self.pos
        for i in _top_level(self.spans, start, len(texts)):
            text = texts[i]
            if text == stop:
                self.pos = i + 1
                return start, i
            if text in _CLOSERS:
                raise ParseError(f"expected {stop!r} before {text!r}", line=self.lines[i])

    def parse_block(self) -> BlockNode:
        self.expect("{")
        node = BlockNode()
        while self.peek() != "}":
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
        line = self.lines[self.expect(keyword)]
        self.expect("(")
        return _cond_stmt(self.texts, *self._collect_until(")"), line, self.scopes)

    def parse_statement(self):
        text, line = self.texts[self.pos], self.lines[self.pos]
        if text in ("goto", "switch"):
            raise ParseError(f"unsupported construct: {text}", line=line)
        if text in ("case", "default"):
            raise ParseError(f"unsupported construct: {text} label", line=line)
        # An identifier is never the body's last token, its '}', so one follows.
        if text[0] in _ID_START and text not in _KEYWORDS and self.texts[self.pos + 1] == ":":
            raise ParseError(f"unsupported construct: label '{text}'", line=line)

        if text == "{":
            self.scopes.open()
            node = self.parse_block()
            self.scopes.close()
            return node
        if text == ";":
            self.pos += 1
            return None
        if text == "if":
            cond = self._parse_cond("if")
            then = self._parse_body()
            orelse = None
            if self.peek() == "else":
                self.pos += 1
                orelse = self._parse_body()
            return IfNode(cond, then, orelse)
        if text == "while":
            cond = self._parse_cond("while")
            return ForNode(None, cond, None, self._parse_body())
        if text == "do":
            self.pos += 1
            body = self._parse_body()
            cond = self._parse_cond("while")
            self.expect(";")
            return DoWhileNode(body, cond)
        if text == "for":
            return self._parse_for()
        if text == "return":
            self.pos += 1
            lo, hi = self._collect_until(";")
            uses = self.scopes.reads(self.texts, lo, hi, line)
            return Stmt("return", uses, 0, line, self.texts[lo:hi])
        if text in ("break", "continue"):
            self.pos += 1
            self.expect(";")
            return JumpNode(text, line)
        return _parse_simple(self.toks, *self._collect_until(";"), self.scopes)

    def _parse_for(self) -> ForNode:
        line = self.lines[self.expect("for")]
        self.expect("(")
        self.scopes.open()
        lo, hi = self._collect_until(";")
        init = _parse_simple(self.toks, lo, hi, self.scopes) if lo < hi else None
        lo, hi = self._collect_until(";")
        cond = _cond_stmt(self.texts, lo, hi, line, self.scopes) if lo < hi else None
        lo, hi = self._collect_until(")")
        step = _parse_simple(self.toks, lo, hi, self.scopes) if lo < hi else None
        node = ForNode(init, cond, step, self._parse_body())
        self.scopes.close()
        return node


def link_statements(succs: dict[int, list[int]], block_stmts: dict[int, list[Stmt]],
                    entry: int) -> tuple[list[Stmt], dict[int, tuple[int, ...]]]:
    """The statements of the blocks reachable from ``entry``, and their successors.

    Blocks are numbered in layout order, and so are the statements they keep:
    a for-loop's step lands after its body, everything else follows source
    order. A statement is followed by the next one in its block, or else by
    the first statements of its block's successors, where an empty block
    leads on to its own successors. What an empty block leads to is a least
    fixpoint, since empty blocks can form a cycle (``for (;;) { }``): the
    sweeps go in reverse layout order, so only a back edge costs another one.
    """
    reachable = {entry}
    stack = [entry]
    while stack:
        for b in succs[stack.pop()]:
            if b not in reachable:
                reachable.add(b)
                stack.append(b)
    order = sorted(reachable)

    stmts: list[Stmt] = []
    heads: dict[int, frozenset[int]] = {}  # the statements a block starts with, or leads to
    empty = []
    for b in order:
        if block_stmts[b]:
            heads[b] = frozenset((len(stmts),))
            for stmt in block_stmts[b]:
                stmt.stmt_id = len(stmts)
                stmts.append(stmt)
        else:
            heads[b] = frozenset()
            empty.append(b)
    empty.reverse()
    changed = True
    while changed:
        changed = False
        for b in empty:
            led = heads[b].union(*(heads[t] for t in succs[b]))
            if led != heads[b]:
                heads[b] = led
                changed = True

    successors: dict[int, tuple[int, ...]] = {}
    for b in order:
        ids = [stmt.stmt_id for stmt in block_stmts[b]]
        for sid, nxt in zip(ids, ids[1:]):
            successors[sid] = (nxt,)
        if ids:
            successors[ids[-1]] = tuple(sorted(frozenset().union(*(heads[t] for t in succs[b]))))
    return stmts, successors


class _CfgBuilder:
    """Lays a statement tree out into basic blocks, as ``link_statements`` expects them."""

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
            self.current = self.new_block()  # unreachable; dropped later
        return self.current

    def emit(self, stmt: Stmt) -> None:
        self.block_stmts[self.ensure_current()].append(stmt)

    def walk(self, node) -> None:
        if isinstance(node, Stmt):
            self.emit(node)
            if node.kind == "return":
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
                                                   dict[int, list[Stmt]], int]:
        """Blocks numbered in layout order, and the entry; leaving the function is no edge."""
        entry = self.new_block()
        self.current = entry
        self.walk(structure)
        return self.succs, self.block_stmts, entry


def reference_parse(source: str, signature: str) -> tuple[FunctionIr, BlockNode]:
    """``vecport.parser.parse_function`` by way of a statement tree; the IR and the tree."""
    name = signature_name(signature)
    toks = tokenize(source)
    body_open, paren_open = _find_function(toks, name)
    scopes = _Scopes()
    _parse_params(toks, paren_open + 1, body_open - 1, scopes)
    try:
        structure = TreeParser(toks, body_open, scopes).parse_block()
        stmts, successors = link_statements(*_CfgBuilder().build(structure))
    except RecursionError:
        raise ParseError("nesting too deep") from None
    ir = FunctionIr(name, scopes.table, stmts, successors)
    return ir, structure


def _signature_text(source: str, name: str) -> str:
    """The declarator of the definition of ``name``: its tokens after the
    last top-level ';' or '{...}' group before it, up to the body."""
    toks = texts, _, spans = tokenize(source)
    body_open, paren_open = _find_function(toks, name)
    start = 0
    for i in _top_level(spans, 0, paren_open):
        if texts[i] == "{":
            start = i + spans[i] + 1
        elif texts[i] == ";":
            start = i + 1
    return _render_tokens(texts[start:body_open])


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
