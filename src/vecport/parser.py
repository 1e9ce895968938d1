"""Statement-level front end for RVV intrinsic C functions.

Parses one function out of a C translation unit into a flat statement list
with vector use/def sets, plus a control-flow graph of basic blocks. The
supported subset is what intrinsic kernels actually need: declarations,
assignments, calls, compound statements, if/else, for, while, do-while,
break/continue, return. goto and switch are rejected with a located
diagnostic rather than analyzed wrongly.

The lexer is one pass of one master regex over the original source:
comments, preprocessor directives and blanks are skipped in place, so every
token's (line, col) points into the text as written. The lexer also pairs
every bracket, the one place nesting is decided: text whose brackets do not
balance is rejected with its line, and each opener's ``span`` leads to its
closer, so later scans step over whole groups. Parameters are read by the
same declaration reader as body statements.

The body parser builds no statement tree: it emits each statement into its
basic block as it reads it, and wires each construct's edges as its parts
arrive. A ``for`` step is read before the loop body but emitted after it,
and a ``while`` loop is a ``for`` with no init and no step. Each name
resolves as it is read, through a stack of block scopes (``_Scopes``), so a
statement is final when it is read. Each ``{`` block, each ``for`` and each
branch or loop body opens a scope; a vector that shadows another, or that
reuses a name the function gave another type, gets an IR name ``x@k``.
``build_cfg`` then prunes unreachable and empty pass-through blocks and
numbers blocks and statements in layout order. Statement-level successor
edges are derived from the block graph once per IR, as
``FunctionIr.successors``; they list statements only, so a statement that
leaves the function has no successor.

Scalar and pointer-typed values are invisible to the analysis: use/def sets
hold only the IR names of vectors, so a ``vsetvl`` result or a pointer bump
contributes nothing.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from .errors import ParseError
from .rvv_types import VectorType, parse_vector_type


_KEYWORDS = {
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "goto", "switch", "case", "default", "sizeof", "struct", "union", "enum",
    "typedef", "static", "const", "volatile", "register", "inline", "extern",
    "restrict", "__restrict", "__restrict__", "__inline", "__inline__",
}

_QUALIFIERS = {
    "const", "static", "volatile", "register", "inline", "extern",
    "restrict", "__restrict", "__restrict__", "__inline", "__inline__",
    "unsigned", "signed",
}

# What may precede a declarator's name: pointer stars and their qualifiers.
_DECLARATOR_PREFIX = frozenset({"*"} | _QUALIFIERS)

_SCALAR_TYPE_WORDS = {
    "void", "char", "short", "int", "long", "float", "double", "_Bool", "bool",
    "unsigned", "signed", "size_t", "ptrdiff_t", "ssize_t", "intptr_t",
    "uintptr_t", "wchar_t",
}
_SCALAR_TYPE_WORDS |= {f"{s}int{w}_t" for s in ("", "u") for w in (8, 16, 32, 64)}
_SCALAR_TYPE_WORDS |= {f"{s}int_fast{w}_t" for s in ("", "u") for w in (8, 16, 32, 64)}
_SCALAR_TYPE_WORDS |= {f"{s}int_least{w}_t" for s in ("", "u") for w in (8, 16, 32, 64)}

# Multi-character operators first so the master regex prefers them.
_OPERATORS = [
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

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
_CLOSERS = frozenset(_CLOSER_OF.values())
_GROUP_NAME = {"(": "parentheses", "[": "brackets", "{": "braces"}


@dataclass(slots=True)
class Token:
    # Not frozen: a frozen dataclass pays a __setattr__ call per field on
    # every token built, and slots read faster than NamedTuple fields.
    text: str
    kind: str  # id | num | str | punct
    line: int
    col: int
    span: int = 0  # an opening bracket's offset to its closer; 0 otherwise


def tokenize(source: str) -> list[Token]:
    """The tokens of ``source``, each opening bracket paired with its closer."""
    tokens = []
    openers = []  # indices of the brackets still open, innermost last
    line, line_start = 1, 0
    for m in _LEX_RE.finditer(source):
        kind = m.lastgroup
        if kind in _TOKEN_KINDS:
            tokens.append(Token(m[kind], kind, line, m.start(kind) - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "opener":
            openers.append(len(tokens))
            tokens.append(Token(m[kind], "punct", line, m.start(kind) - line_start + 1))
        elif kind == "closer":
            text = m[kind]
            if not openers or _CLOSER_OF[tokens[openers[-1]].text] != text:
                raise ParseError(f"mismatched {text!r}", line=line)
            opened = openers.pop()
            tokens[opened].span = len(tokens) - opened
            tokens.append(Token(text, "punct", line, m.start(kind) - line_start + 1))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line=line)
        elif kind == "unclosed":
            raise ParseError("unterminated block comment", line=line)
        else:  # directive, comment or end: skipped, but may span lines
            text = m[kind]
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start(kind) + text.rindex("\n") + 1
    if openers:
        tok = tokens[openers[-1]]
        raise ParseError(f"unbalanced {_GROUP_NAME[tok.text]}", line=tok.line)
    return tokens


def _top_level(tokens: list[Token], start: int = 0) -> Iterator[int]:
    """Indices from ``start`` on; a group yields its opener only.

    A closer whose opener lies before ``start`` is yielded like any token.
    """
    i, end = start, len(tokens)
    while i < end:
        yield i
        i += tokens[i].span + 1


@dataclass(slots=True, eq=False)
class Stmt:
    """One statement of the analyzed function.

    ``uses``/``defs`` name vector-typed values only, by IR name; both may
    mention the same name (an accumulator update reads and writes it).
    ``tokens`` is the statement's slice of the source, a ``return``'s
    without its keyword; ``text`` renders it when read, since the analysis
    itself reads the text of one statement at most. Two statements are equal
    when everything but their tokens is, the rendered text included.
    """

    kind: str
    uses: frozenset[str]
    defs: frozenset[str]
    line: int
    tokens: list[Token] = field(repr=False)
    stmt_id: int = -1  # its place in layout order, set by build_cfg; -1 if unreachable

    @property
    def text(self) -> str:
        text = _render_tokens(self.tokens)
        if self.kind == "return":
            return f"return {text}" if text else "return"
        return text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stmt):
            return NotImplemented
        return (self.kind, self.uses, self.defs, self.line, self.stmt_id, self.text) == (
            other.kind, other.uses, other.defs, other.line, other.stmt_id, other.text)


@dataclass
class BasicBlock:
    block_id: int
    stmt_ids: list[int] = field(default_factory=list)


@dataclass
class Cfg:
    blocks: list[BasicBlock]
    succs: dict[int, tuple[int, ...]]
    entry: int
    exit: int

    def block(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]  # blocks are numbered densely from 0

    def successors(self, block_id: int) -> tuple[int, ...]:
        return self.succs.get(block_id, ())


@dataclass
class FunctionIr:
    name: str
    symbol_table: dict[str, VectorType]
    stmts: list[Stmt]
    cfg: Cfg

    def stmt(self, stmt_id: int) -> Stmt:
        return self.stmts[stmt_id]

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        """Successor statements of each statement; leaving the function adds none.

        Block-level edges are translated by taking the first statement of each
        successor block, skipping through empty blocks transitively. ``seen``
        guards cycles made purely of empty blocks, which contribute nothing.
        Computed once per IR: the solver, its fixpoint check and the test
        suite's oracle all read the same edges.
        """
        cfg = self.cfg

        def first_stmts(block_ids: tuple[int, ...], seen: frozenset[int]) -> list[int]:
            out: list[int] = []
            for b in block_ids:
                stmt_ids = cfg.block(b).stmt_ids
                if b == cfg.exit or (b in seen and not stmt_ids):
                    continue
                for t in stmt_ids[:1] or first_stmts(cfg.successors(b), seen | {b}):
                    if t not in out:
                        out.append(t)
            return out

        succ: dict[int, tuple[int, ...]] = {}
        for block in cfg.blocks:
            for idx, sid in enumerate(block.stmt_ids):
                if idx + 1 < len(block.stmt_ids):
                    succ[sid] = (block.stmt_ids[idx + 1],)
                else:
                    succ[sid] = tuple(first_stmts(cfg.successors(block.block_id), frozenset()))
        return succ


# ---------------------------------------------------------------------------
# Names, block by block, and the statement readers that resolve them.

_FREE = object()  # what a declaration hid when nothing declared its name before


class _Scopes:
    """The names a function body sees, block by block (C11 §6.2.1).

    ``visible`` maps each name in scope to its vector's IR name, or to None
    if its innermost declaration is no vector. Each open scope keeps what
    its declarations hid, for ``close`` to restore, so a read is one lookup.
    ``table`` maps IR names to vector types. A vector keeps its source name
    unless a vector of that name is in scope, visible or hidden, or the
    table gives the name another type; then it is the first ``name@k``
    (k >= 2) the table lacks. ``unbound`` maps each name read where nothing
    declares it to the line of its first read.
    """

    def __init__(self):
        self.table: dict[str, VectorType] = {}
        self.visible: dict[str, str | None] = {}
        self.hidden: list[dict[str, object]] = [{}]  # one per open scope, innermost last
        self.unbound: dict[str, int] = {}

    def open(self) -> None:
        self.hidden.append({})

    def close(self) -> None:
        for name, prior in self.hidden.pop().items():
            if prior is _FREE:
                del self.visible[name]
            else:
                self.visible[name] = prior

    def declare(self, name: str, vt: VectorType | None, line: int) -> str | None:
        """Enter a declarator in the innermost scope, where it is visible from its
        initializer on (C11 §6.2.1p7); its IR name if it is a vector."""
        hid = self.hidden[-1]
        if name not in hid:
            hid[name] = self.visible.get(name, _FREE)
        elif vt is not None and (ir := self.visible[name]) is not None:
            if self.table[ir] != vt:
                raise ParseError(f"'{name}' redeclared with a different vector type", line=line)
            return ir
        if vt is None:
            self.visible[name] = None
            return None
        if name in self.unbound:
            raise ParseError(f"vector value '{name}' referenced before its declaration",
                             line=self.unbound[name])
        ir = name
        if self.table.get(name, vt) != vt or any(isinstance(h.get(name), str) for h in self.hidden):
            ir = next(ir for k in count(2) if (ir := f"{name}@{k}") not in self.table)
        self.table[ir] = vt
        self.visible[name] = ir
        return ir

    def reads(self, tokens: list[Token], line: int) -> set[str]:
        """The IR names of the vectors ``tokens`` read; skips callees, members, keywords."""
        found = set()
        visible, unbound = self.visible, self.unbound
        for i, tok in enumerate(tokens):
            if tok.kind != "id" or tok.text in _KEYWORDS:
                continue
            if i + 1 < len(tokens) and tokens[i + 1].text == "(":
                continue
            if i > 0 and tokens[i - 1].text in (".", "->"):
                continue
            ir = visible.get(tok.text, _FREE)
            if ir is _FREE:
                unbound.setdefault(tok.text, line)
            elif ir is not None:
                found.add(ir)
        return found


def _top_level_assign_index(tokens: list[Token]) -> int | None:
    for i in _top_level(tokens):
        if tokens[i].text in _ASSIGN_OPS and tokens[i].kind == "punct":
            return i
    return None


def _split_top_level(tokens: list[Token], sep: str) -> list[list[Token]]:
    parts, start = [], 0
    for i in _top_level(tokens):
        if tokens[i].text == sep:
            parts.append(tokens[start:i])
            start = i + 1
    parts.append(tokens[start:])
    return parts


def _is_type_start(t: Token) -> bool:
    return t.kind == "id" and (t.text in ("struct", "union", "enum")
                               or t.text in _SCALAR_TYPE_WORDS
                               or parse_vector_type(t.text) is not None)


def _parse_simple(tokens: list[Token], scopes: _Scopes) -> Stmt:
    """One simple statement; a declaration enters its names in the innermost scope."""
    line = tokens[0].line
    i = 0
    while i < len(tokens) and tokens[i].text in _QUALIFIERS:
        i += 1
    if i < len(tokens) and _is_type_start(tokens[i]):
        kind, uses, defs = _read_decl(tokens, i, scopes, line)
    else:
        kind, uses, defs = _read_expr_stmt(tokens, scopes, line)
    return Stmt(kind, frozenset(uses), frozenset(defs), line, tokens)


def _cond_stmt(tokens: list[Token], at: Token, scopes: _Scopes) -> Stmt:
    """A condition: it reads ``tokens``, declares nothing, and sits at ``at``."""
    return Stmt("scalar_other", frozenset(scopes.reads(tokens, at.line)), frozenset(),
                at.line, tokens)


def _read_decl(tokens: list[Token], i: int, scopes: _Scopes,
               line: int) -> tuple[str, set[str], set[str]]:
    """A declaration whose type words start at ``tokens[i]``: its kind, uses and defs."""
    base_vec: VectorType | None = None
    while i < len(tokens):
        t = tokens[i]
        if t.text in ("struct", "union", "enum"):
            i += 2  # tag name follows
            continue
        vt = parse_vector_type(t.text)
        if vt is not None:
            base_vec = vt
        elif t.text not in _QUALIFIERS and t.text not in _SCALAR_TYPE_WORDS:
            break
        i += 1

    uses: set[str] = set()
    defs: set[str] = set()
    for declarator in _split_top_level(tokens[i:], ","):
        if not declarator:
            continue
        j = 0
        stars = 0
        while j < len(declarator) and declarator[j].text in _DECLARATOR_PREFIX:
            if declarator[j].text == "*":
                stars += 1
            j += 1
        if j >= len(declarator) or declarator[j].kind != "id":
            continue
        is_array = j + 1 < len(declarator) and declarator[j + 1].text == "["
        init: list[Token] = []
        for k in range(j + 1, len(declarator)):
            if declarator[k].text == "=" and declarator[k].kind == "punct":
                init = declarator[k + 1:]
                break
        ir = scopes.declare(declarator[j].text,
                            base_vec if stars == 0 and not is_array else None, line)
        if init:
            if ir is not None:
                defs.add(ir)
            uses |= scopes.reads(init, line)
    return "decl", uses, defs


def _read_expr_stmt(tokens: list[Token], scopes: _Scopes,
                    line: int) -> tuple[str, set[str], set[str]]:
    """An expression statement: its kind, uses and defs."""
    k = _top_level_assign_index(tokens)
    if k is None:
        has_call = any(t.kind == "id" and t.text not in _KEYWORDS and after.text == "("
                       for t, after in zip(tokens, tokens[1:]))
        return "call" if has_call else "scalar_other", scopes.reads(tokens, line), set()
    lhs, rhs = tokens[:k], tokens[k + 1:]
    uses = scopes.reads(rhs, line)
    if len(lhs) == 1 and lhs[0].kind == "id":
        defs = scopes.reads(lhs, line)
        if tokens[k].text != "=":  # compound op reads the target too
            uses |= defs
        return "assign", uses, defs
    return "assign", uses | scopes.reads(lhs, line), set()


# ---------------------------------------------------------------------------
# Function-body parsing, straight into basic blocks.


class _BodyParser:
    """Reads a function body and lays each statement into a basic block as it goes.

    This is syntax-directed translation with backpatching (Aho et al.,
    *Compilers*, 2nd ed., §6.6–6.7): a construct's blocks and edges are made
    as its parts are read, and each open loop keeps its break and continue
    sources until its join and back-edge targets exist. Blocks are numbered
    in layout order. ``current`` is the block that takes the next statement;
    after a jump or a return it is None, and a statement that follows opens
    an unreachable block, which ``build_cfg`` prunes.

    Each nesting level costs two Python frames (``parse_statement`` and
    ``parse_block`` or ``_parse_body``), so nesting too deep for the
    recursion limit surfaces as a RecursionError.
    """

    def __init__(self, tokens: list[Token], scopes: _Scopes):
        self.toks = tokens
        self.pos = 0
        self.scopes = scopes
        self.block_stmts: dict[int, list[Stmt]] = {}
        self.succs: dict[int, list[int]] = {}
        self.current: int | None = None
        self.loop_stack: list[dict[str, list[int]]] = []  # break/continue sources
        self.return_sources: list[int] = []

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

    def new_block(self, *sources: int | None) -> int:
        """A new block, entered from each source that is still reachable."""
        bid = len(self.succs)
        self.block_stmts[bid] = []
        self.succs[bid] = []
        self.link(sources, bid)
        return bid

    def edge(self, a: int, b: int) -> None:
        if b not in self.succs[a]:
            self.succs[a].append(b)

    def link(self, sources: Iterable[int | None], target: int) -> None:
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

    def parse_function_body(self) -> tuple[dict[int, list[int]],
                                           dict[int, list[Stmt]], int, int]:
        """The function body's blocks and edges, its entry and its exit, which comes last.

        The body's outermost block shares the parameters' scope.
        """
        entry = self.current = self.new_block()
        self.parse_block()
        exit_block = self.new_block(self.current, *self.return_sources)
        return self.succs, self.block_stmts, entry, exit_block

    def parse_block(self) -> None:
        self.expect("{")
        while self.peek().text != "}":
            self.parse_statement()
        self.expect("}")

    def _parse_body(self, entry: int, loop: dict[str, list[int]] | None = None) -> int | None:
        """One statement, a branch's or a loop's body, laid out from ``entry``.

        The statement is a block scope of its own even without braces (C11
        §6.8.4p3, §6.8.5p5), so what it declares ends with it. Returns the
        block the body ends in, None if it ends in a jump. A loop body's
        break and continue sources are collected in ``loop``.
        """
        if loop is not None:
            self.loop_stack.append(loop)
        self.current = entry
        self.scopes.open()
        self.parse_statement()
        self.scopes.close()
        if loop is not None:
            self.loop_stack.pop()
        return self.current

    def _parse_cond(self, keyword: str) -> Stmt:
        """``keyword ( cond )``; the condition is placed at the keyword."""
        tok = self.expect(keyword)
        self.expect("(")
        return _cond_stmt(self._collect_until(")"), tok, self.scopes)

    def _parse_loop_head(self, tok: Token) -> tuple[Stmt | None, Stmt | None]:
        """A loop's condition and step; a ``for`` init is emitted here, before the loop.

        A ``for`` opens the scope its init declares into, which the caller
        closes after the body. A ``while`` loop is a ``for`` loop with no
        init and no step.
        """
        if tok.text == "while":
            return self._parse_cond("while"), None
        self.expect("for")
        self.expect("(")
        self.scopes.open()
        init = self._collect_until(";")
        if init:
            self.emit(_parse_simple(init, self.scopes))
        cond = self._collect_until(";")
        step = self._collect_until(")")
        return (_cond_stmt(cond, tok, self.scopes) if cond else None,
                _parse_simple(step, self.scopes) if step else None)

    def parse_statement(self) -> None:
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
            self.parse_block()
            self.scopes.close()
        elif tok.text == ";":
            self.advance()
        elif tok.text == "if":
            self.emit(self._parse_cond("if"))
            cond_block = self.current
            ends = [self._parse_body(self.new_block(cond_block))]
            if self.peek().text == "else":
                self.advance()
                ends.append(self._parse_body(self.new_block(cond_block)))
            else:
                ends.append(cond_block)  # a false condition goes straight to the join
            self.current = self.new_block(*ends)
        elif tok.text in ("for", "while"):
            cond, step = self._parse_loop_head(tok)
            header = self.current = self.new_block(self.ensure_current())
            if cond is not None:
                self.emit(cond)
            jumps = {"break": [], "continue": []}
            end = self._parse_body(self.new_block(header), jumps)
            if step is None:
                self.link([end, *jumps["continue"]], header)
            else:
                self.current = self.new_block(end, *jumps["continue"])
                self.emit(step)
                self.edge(self.current, header)
            # Taken even with an empty condition: liveness may-analysis only
            # gains safety from a conservative loop-exit edge.
            self.current = self.new_block(header, *jumps["break"])
            if tok.text == "for":
                self.scopes.close()
        elif tok.text == "do":
            self.advance()
            body = self.new_block(self.ensure_current())
            jumps = {"break": [], "continue": []}
            end = self._parse_body(body, jumps)
            cond_block = self.current = self.new_block(end, *jumps["continue"])
            self.emit(self._parse_cond("while"))
            self.expect(";")
            self.edge(cond_block, body)
            self.current = self.new_block(cond_block, *jumps["break"])
        elif tok.text == "return":
            self.advance()
            expr = self._collect_until(";")
            uses = frozenset(self.scopes.reads(expr, tok.line))
            self.emit(Stmt("return", uses, frozenset(), tok.line, expr))
            self.return_sources.append(self.current)
            self.current = None
        elif tok.text in ("break", "continue"):
            self.advance()
            self.expect(";")
            if not self.loop_stack:
                raise ParseError(f"{tok.text} outside a loop", line=tok.line)
            self.loop_stack[-1][tok.text].append(self.ensure_current())
            self.current = None
        else:
            self.emit(_parse_simple(self._collect_until(";"), self.scopes))


def _prune_and_simplify(succs, block_stmts, entry, exit_block):
    """Drop unreachable blocks, then splice out empty single-successor blocks."""
    reachable = set()
    stack = [entry]
    while stack:
        b = stack.pop()
        if b in reachable:
            continue
        reachable.add(b)
        stack.extend(succs[b])
    reachable.add(exit_block)  # kept for shape when every path loops forever
    order = [b for b in succs if b in reachable]
    succs = {b: [s for s in succs[b] if s in reachable] for b in order}

    changed = True
    while changed:
        changed = False
        for b in list(order):
            if b == exit_block or block_stmts[b]:
                continue
            if len(succs[b]) != 1:
                continue
            target = succs[b][0]
            if target == b:
                continue
            for p in order:
                if b in succs[p]:
                    succs[p] = [target if s == b else s for s in succs[p]]
                    # dedupe, preserving order
                    seen = set()
                    succs[p] = [s for s in succs[p] if not (s in seen or seen.add(s))]
            if entry == b:
                entry = target
            order.remove(b)
            del succs[b]
            changed = True
    return order, succs, entry


def build_cfg(succs: dict[int, list[int]], block_stmts: dict[int, list[Stmt]],
              entry: int, exit_block: int) -> tuple[Cfg, list[Stmt]]:
    """The simplified graph of a laid-out body, and its statements in layout order.

    Unreachable and empty pass-through blocks are dropped, and blocks and
    statements are numbered densely in layout order: a for-loop's step lands
    after its body, everything else follows source order.
    """
    order, succs, entry = _prune_and_simplify(succs, block_stmts, entry, exit_block)

    ordered_stmts: list[Stmt] = []
    blocks = []
    old_to_new_block = {b: i for i, b in enumerate(order)}
    for b in order:
        stmts = block_stmts[b] if b != exit_block else []
        ids = []
        for stmt in stmts:
            stmt.stmt_id = len(ordered_stmts)
            ids.append(stmt.stmt_id)
            ordered_stmts.append(stmt)
        blocks.append(BasicBlock(old_to_new_block[b], ids))
    new_succs = {
        old_to_new_block[b]: tuple(old_to_new_block[s] for s in succs[b]) for b in order
    }
    cfg = Cfg(
        blocks=blocks,
        succs=new_succs,
        entry=old_to_new_block[entry],
        exit=old_to_new_block[exit_block],
    )
    return cfg, ordered_stmts


# ---------------------------------------------------------------------------
# Whole-function parsing.


def _read_declarator(signature: str) -> tuple[str, list[str]]:
    """The stripped signature and the identifiers before its first '('."""
    sig = signature.strip()
    return sig, re.findall(r"[A-Za-z_]\w*", sig.split("(", 1)[0])


def signature_name(signature: str) -> str:
    """Function name from a C declarator, or the string itself if it is a bare name."""
    sig, idents = _read_declarator(signature)
    if idents and ("(" in sig or idents == [sig]):
        return idents[-1]
    raise ParseError(f"cannot read a function name from {signature!r}")


def validate_signature(signature: str) -> str:
    """Check that a signature is a plausible C function declarator; returns the name."""
    sig, idents = _read_declarator(signature)
    # Needs at least a return type and a name before the parameter list.
    if "(" not in sig or not sig.endswith(")") or len(idents) < 2:
        raise ParseError(f"not a function declarator: {signature!r}")
    return idents[-1]


def _find_function(tokens: list[Token], name: str) -> tuple[int, int]:
    """(body '{' index, params '(' index) of a top-level definition."""
    for i in _top_level(tokens):
        if tokens[i].text == name and i + 1 < len(tokens) and tokens[i + 1].text == "(":
            body_open = i + tokens[i + 1].span + 2  # the token after the ')'
            if body_open < len(tokens) and tokens[body_open].text == "{":
                return body_open, i + 1
    raise ParseError(f"function '{name}' not found")


def _parse_params(tokens: list[Token], scopes: _Scopes) -> None:
    """Declare the parameters, each read as a declaration, in the outermost scope."""
    for part in _split_top_level(tokens, ","):
        if part:
            _parse_simple(part, scopes)
    scopes.unbound.clear()  # a parameter that declares nothing reads nothing either


def parse_function(source: str, signature: str) -> FunctionIr:
    """Parse the function matching ``signature`` (a declarator or bare name).

    Statements come out in source layout order; declarations with initializers
    carry the declared name in their def set. Unsupported constructs (goto,
    switch, labels) raise ParseError naming the construct and line; nesting
    too deep for Python's recursion limit raises one too.
    """
    name = signature_name(signature)
    tokens = tokenize(source)
    body_open, paren_open = _find_function(tokens, name)
    scopes = _Scopes()
    _parse_params(tokens[paren_open + 1:body_open - 1], scopes)
    body_close = body_open + tokens[body_open].span
    try:
        body = _BodyParser(tokens[body_open:body_close + 1], scopes).parse_function_body()
    except RecursionError:
        raise ParseError("nesting too deep") from None
    cfg, stmts = build_cfg(*body)
    return FunctionIr(name=name, symbol_table=scopes.table, stmts=stmts, cfg=cfg)


_NO_SPACE_AFTER = {"(", "[", ".", "->", "!", "~", "++", "--"}
_NO_SPACE_BEFORE = {")", "]", ",", ";", ".", "->", "++", "--"}


def _render_tokens(tokens: list[Token]) -> str:
    out = []
    for i, tok in enumerate(tokens):
        if i and _needs_space(tokens[i - 1], tok):
            out.append(" ")
        out.append(tok.text)
    return "".join(out)


def _needs_space(prev: Token, cur: Token) -> bool:
    if prev.text in _NO_SPACE_AFTER:
        return False
    if cur.text in _NO_SPACE_BEFORE:
        return False
    if cur.text in ("(", "[") and prev.kind == "id":
        return False
    if prev.text == "*" and cur.kind == "id":
        return False
    return True


# ---------------------------------------------------------------------------
# Debug dump.


def dump_ir(ir: FunctionIr) -> str:
    """Human-readable statement/CFG listing for the --dump-ir flag."""
    lines = [f"function {ir.name}"]
    lines.append("vector symbols:")
    for name in sorted(ir.symbol_table):
        lines.append(f"  {name}: {ir.symbol_table[name].name()}")
    for block in ir.cfg.blocks:
        tags = []
        if block.block_id == ir.cfg.entry:
            tags.append("entry")
        if block.block_id == ir.cfg.exit:
            tags.append("exit")
        suffix = f" ({', '.join(tags)})" if tags else ""
        succs = ", ".join(f"B{s}" for s in ir.cfg.successors(block.block_id))
        lines.append(f"B{block.block_id}{suffix} -> [{succs}]")
        for sid in block.stmt_ids:
            s = ir.stmts[sid]
            use = ", ".join(sorted(s.uses)) or "-"
            deff = ", ".join(sorted(s.defs)) or "-"
            lines.append(f"  s{sid} [{s.kind}] line {s.line}: {s.text}")
            lines.append(f"      use: {use}   def: {deff}")
    return "\n".join(lines) + "\n"
