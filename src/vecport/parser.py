"""Statement-level front end for RVV intrinsic C functions.

Parses one function out of a C translation unit into a flat statement list
with vector use/def sets and the successors of each statement. The
supported subset is what intrinsic kernels actually need: declarations,
assignments, calls, compound statements, if/else, for, while, do-while,
break/continue, return. goto and switch are rejected with a located
diagnostic rather than analyzed wrongly.

The lexer is one ``findall`` of one master regex over the original source,
and makes no object per token: it returns three parallel columns, each
token's text, its line and its bracket span. Comments, preprocessor
directives and blanks are skipped in place, so every token's line is the
line it is written on. A token's kind follows from its first character, so
no column holds it. The lexer also pairs every bracket, the one place
nesting is decided: text whose brackets do not balance is rejected with its
line, and each opener's span leads to its closer, so later scans step over
whole groups. The statement readers take ``(lo, hi)`` index ranges into the
columns, and a statement keeps its token texts. Parameters are read by the
same declaration reader as body statements.

The body parser builds no statement tree: it emits each statement into its
basic block as it reads it, and wires each construct's edges as its parts
arrive. A ``for`` step is read before the loop body but emitted after it,
and a ``while`` loop is a ``for`` with no init and no step. Each name
resolves as it is read, through a stack of block scopes (``_Scopes``), so a
statement is final when it is read. Each ``{`` block, each ``for`` and each
branch or loop body opens a scope; a vector that shadows another, or that
reuses a name the function gave another type, gets an IR name ``x@k``.
``link_statements`` then keeps the blocks reachable from the entry, numbers
their statements in layout order and gives each statement its successor
statements, ``FunctionIr.successors``: the flow graph the solver reads has
statements for nodes, so the blocks are gone once it is built. A statement
that leaves the function has no successor.

Scalar and pointer-typed values are invisible to the analysis: use/def sets
hold only the IR names of vectors, so a ``vsetvl`` result or a pointer bump
contributes nothing.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import count
from string import ascii_letters
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

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# One master pattern whose matches tile the source, with two groups: a
# directive, or else the piece after a run of blanks. The directive comes
# first, on its own: it starts a line after spaces or tabs only and runs on
# through lines continued by a backslash (LF or CRLF). It keeps its own group
# because a null directive ``#`` and a stray ``#`` mid-line have the same
# text. The piece is an identifier; a character that starts no longer token
# (a newline among them); a comment, or a ``/*`` that no ``*/`` closes; a
# number; a string or char literal; a multi-character operator, longest
# first; or else any one character, or none at the end. A literal ends on its
# line: neither a raw newline nor a backslash-newline continues it, so a lone
# quote is left as one character.
_LEX_RE = re.compile(
    r"""
    (?m:^)[ \t]*(\#(?:[^\n]*\\[ \t]*\r?\n)*[^\n]*)
  | [ \t\r\f\v]*
    ( [A-Za-z_]\w*
    | [;,()\[\]{}?:~\n]
    | //[^\n]* | /\*(?s:.*?)\*/ | /\*
    | 0[xX][0-9a-fA-F]+[uUlL]*|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fFuUlL]*
    | "(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'
    | <<=?|>>=?|[-+*/%&|^!=<>]=|->|\+\+|--|&&|\|\||\.\.\.
    | [\s\S]?
    )
    """,
    re.VERBOSE,
)
_ID_START = frozenset(ascii_letters + "_")
# What a piece that is a token as it stands may start with: '.' starts a
# number or a punctuator. A quote starts a literal only if more follows; '/'
# may start a comment; brackets are paired.
_TOKEN_START = _ID_START | frozenset("0123456789;,.+-*%<>=!&|^~?:")
_QUOTES = frozenset("\"'")
_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_CLOSER_OF.values())
_GROUP_NAME = {"(": "parentheses", "[": "brackets", "{": "braces"}


def tokenize(source: str) -> tuple[list[str], list[int], list[int]]:
    """The texts of the tokens of ``source``, each token's line, and each
    token's span: an opening bracket's offset to its closer, 0 otherwise."""
    texts: list[str] = []
    lines: list[int] = []
    openers = []  # indices of the brackets still open, innermost last
    pairs = []  # (opener, closer) indices
    line = 1
    for directive, tok in _LEX_RE.findall(source):
        first = tok[:1]
        if first in _TOKEN_START or (first in _QUOTES and len(tok) > 1):
            texts.append(tok)
            lines.append(line)
        elif tok == "\n":
            line += 1
        elif first in _CLOSER_OF:
            openers.append(len(texts))
            texts.append(tok)
            lines.append(line)
        elif first in _CLOSERS:
            if not openers or _CLOSER_OF[texts[openers[-1]]] != tok:
                raise ParseError(f"mismatched {tok!r}", line=line)
            pairs.append((openers.pop(), len(texts)))
            texts.append(tok)
            lines.append(line)
        elif first == "/":
            if tok == "/*":
                raise ParseError("unterminated block comment", line=line)
            if tok[1:2] in ("/", "*"):
                line += tok.count("\n")
            else:
                texts.append(tok)
                lines.append(line)
        elif directive:
            line += directive.count("\n")
        elif tok:
            raise ParseError(f"unexpected character {tok!r}", line=line)
    if openers:
        opened = openers[-1]
        raise ParseError(f"unbalanced {_GROUP_NAME[texts[opened]]}", line=lines[opened])
    spans = [0] * len(texts)
    for opened, closed in pairs:
        spans[opened] = closed - opened
    return texts, lines, spans


def _top_level(spans: list[int], lo: int, hi: int) -> Iterator[int]:
    """Indices in ``[lo, hi)``; a group yields its opener only.

    A closer whose opener lies before ``lo`` is yielded like any token.
    """
    i = lo
    while i < hi:
        yield i
        i += spans[i] + 1


@dataclass(slots=True)
class Stmt:
    """One statement of the analyzed function.

    ``uses``/``defs`` name vector-typed values only, by IR name; both may
    mention the same name (an accumulator update reads and writes it).
    ``tokens`` holds the texts of the statement's tokens, a ``return``'s
    without its keyword; ``text`` renders them when read, since the analysis
    itself reads the text of one statement at most.
    """

    kind: str
    uses: frozenset[str]
    defs: frozenset[str]
    line: int
    tokens: list[str] = field(repr=False)
    stmt_id: int = -1  # its place in layout order, set by link_statements; -1 if unreachable

    @property
    def text(self) -> str:
        text = _render_tokens(self.tokens)
        if self.kind == "return":
            return f"return {text}" if text else "return"
        return text


@dataclass
class FunctionIr:
    """A parsed function: its statements in layout order and the flow between them.

    ``successors`` maps each statement id to the ids of the statements that
    may run next, in ascending order; a statement that leaves the function
    has none.
    """

    name: str
    symbol_table: dict[str, VectorType]
    stmts: list[Stmt]
    successors: dict[int, tuple[int, ...]]


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
        # Only a name some vector has taken can be hidden as a vector.
        if name in self.table and (self.table[name] != vt or any(
                isinstance(h.get(name), str) for h in self.hidden)):
            ir = next(ir for k in count(2) if (ir := f"{name}@{k}") not in self.table)
        self.table[ir] = vt
        self.visible[name] = ir
        return ir

    def reads(self, texts: list[str], lo: int, hi: int, line: int) -> set[str]:
        """The IR names of the vectors ``texts[lo:hi]`` reads; skips callees, members, keywords."""
        found = set()
        visible, unbound = self.visible, self.unbound
        for i in range(lo, hi):
            text = texts[i]
            if text[0] not in _ID_START or text in _KEYWORDS:
                continue
            if i + 1 < hi and texts[i + 1] == "(":
                continue
            if i > lo and texts[i - 1] in (".", "->"):
                continue
            ir = visible.get(text, _FREE)
            if ir is _FREE:
                unbound.setdefault(text, line)
            elif ir is not None:
                found.add(ir)
        return found


# The shared token columns: the texts, lines and spans that ``tokenize`` returns.
Tokens = tuple[list[str], list[int], list[int]]


def _split_top_level(texts: list[str], spans: list[int], lo: int, hi: int,
                     sep: str) -> list[tuple[int, int]]:
    parts, start, i = [], lo, lo
    while i < hi:  # _top_level, inline on this hot path
        if texts[i] == sep:
            parts.append((start, i))
            start = i + 1
        i += spans[i] + 1
    parts.append((start, hi))
    return parts


def _is_type_start(text: str) -> bool:
    return (text in ("struct", "union", "enum") or text in _SCALAR_TYPE_WORDS
            or parse_vector_type(text) is not None)


def _parse_simple(toks: Tokens, lo: int, hi: int, scopes: _Scopes) -> Stmt:
    """The simple statement ``[lo, hi)``; a declaration enters its names in the
    innermost scope."""
    texts, lines, spans = toks
    line = lines[lo]
    i = lo
    while i < hi and texts[i] in _QUALIFIERS:
        i += 1
    if i < hi and _is_type_start(texts[i]):
        kind, uses, defs = _read_decl(texts, spans, i, hi, scopes, line)
    else:
        kind, uses, defs = _read_expr_stmt(texts, spans, lo, hi, scopes, line)
    return Stmt(kind, frozenset(uses), frozenset(defs), line, texts[lo:hi])


def _cond_stmt(texts: list[str], lo: int, hi: int, line: int, scopes: _Scopes) -> Stmt:
    """A condition: it reads ``[lo, hi)``, declares nothing, and sits at ``line``."""
    return Stmt("scalar_other", frozenset(scopes.reads(texts, lo, hi, line)), frozenset(),
                line, texts[lo:hi])


def _read_decl(texts: list[str], spans: list[int], i: int, hi: int, scopes: _Scopes,
               line: int) -> tuple[str, set[str], set[str]]:
    """A declaration whose type words start at ``i``: its kind, uses and defs."""
    base_vec: VectorType | None = None
    while i < hi:
        text = texts[i]
        if text in ("struct", "union", "enum"):
            i += 2  # tag name follows
            continue
        vt = parse_vector_type(text)
        if vt is not None:
            base_vec = vt
        elif text not in _QUALIFIERS and text not in _SCALAR_TYPE_WORDS:
            break
        i += 1

    uses: set[str] = set()
    defs: set[str] = set()
    for lo, end in _split_top_level(texts, spans, i, hi, ","):
        j = lo
        while j < end and texts[j] in _DECLARATOR_PREFIX:
            j += 1
        if j >= end or texts[j][0] not in _ID_START:
            continue
        pointer_or_array = "*" in texts[lo:j] or j + 1 < end and texts[j + 1] == "["
        init = next((k + 1 for k in range(j + 1, end) if texts[k] == "="), end)
        ir = scopes.declare(texts[j], None if pointer_or_array else base_vec, line)
        if init < end:
            if ir is not None:
                defs.add(ir)
            uses |= scopes.reads(texts, init, end, line)
    return "decl", uses, defs


def _read_expr_stmt(texts: list[str], spans: list[int], lo: int, hi: int, scopes: _Scopes,
                    line: int) -> tuple[str, set[str], set[str]]:
    """An expression statement: its kind, uses and defs."""
    k = lo
    while k < hi and texts[k] not in _ASSIGN_OPS:  # the first top-level one
        k += spans[k] + 1
    if k >= hi:
        has_call = any(texts[i][0] in _ID_START and texts[i] not in _KEYWORDS
                       and texts[i + 1] == "(" for i in range(lo, hi - 1))
        return "call" if has_call else "scalar_other", scopes.reads(texts, lo, hi, line), set()
    uses = scopes.reads(texts, k + 1, hi, line)
    if k == lo + 1 and texts[lo][0] in _ID_START:
        defs = scopes.reads(texts, lo, k, line)
        if texts[k] != "=":  # compound op reads the target too
            uses |= defs
        return "assign", uses, defs
    return "assign", uses | scopes.reads(texts, lo, k, line), set()


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
    an unreachable block, which ``link_statements`` drops.

    Each nesting level costs two Python frames (``parse_statement`` and
    ``parse_block`` or ``_parse_body``), so nesting too deep for the
    recursion limit surfaces as a RecursionError.
    """

    def __init__(self, toks: Tokens, start: int, scopes: _Scopes):
        self.toks = toks
        self.texts, self.lines, self.spans = toks
        self.pos = start
        self.scopes = scopes
        self.block_stmts: dict[int, list[Stmt]] = {}
        self.succs: dict[int, list[int]] = {}
        self.current: int | None = None
        self.loop_stack: list[dict[str, list[int]]] = []  # break/continue sources

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
        texts, spans = self.texts, self.spans
        start = i = self.pos
        while (text := texts[i]) != stop:
            if text in _CLOSERS:
                raise ParseError(f"expected {stop!r} before {text!r}", line=self.lines[i])
            i += spans[i] + 1
        self.pos = i + 1
        return start, i

    def new_block(self, *sources: int | None) -> int:
        """A new block, entered from each source that is still reachable."""
        bid = len(self.succs)
        self.block_stmts[bid] = []
        self.succs[bid] = []
        self.link(sources, bid)
        return bid

    def link(self, sources: Iterable[int | None], target: int) -> None:
        """Edges into ``target`` from each source that is still reachable."""
        for src in sources:
            if src is not None:
                self.succs[src].append(target)

    def ensure_current(self) -> int:
        if self.current is None:
            self.current = self.new_block()  # unreachable; dropped later
        return self.current

    def emit(self, stmt: Stmt) -> None:
        self.block_stmts[self.ensure_current()].append(stmt)

    def parse_function_body(self) -> tuple[dict[int, list[int]], dict[int, list[Stmt]], int]:
        """The function body's block edges, its blocks' statements and its entry.

        A block that leaves the function has no edge out. The body's
        outermost block shares the parameters' scope.
        """
        entry = self.current = self.new_block()
        self.parse_block()
        return self.succs, self.block_stmts, entry

    def parse_block(self) -> None:
        self.expect("{")
        while self.peek() != "}":
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
        line = self.lines[self.expect(keyword)]
        self.expect("(")
        return _cond_stmt(self.texts, *self._collect_until(")"), line, self.scopes)

    def _parse_loop_head(self, keyword: str, line: int) -> tuple[Stmt | None, Stmt | None]:
        """A loop's condition and step; a ``for`` init is emitted here, before the loop.

        A ``for`` opens the scope its init declares into, which the caller
        closes after the body. A ``while`` loop is a ``for`` loop with no
        init and no step.
        """
        if keyword == "while":
            return self._parse_cond("while"), None
        self.expect("for")
        self.expect("(")
        self.scopes.open()
        init = self._collect_until(";")
        if init[0] < init[1]:
            self.emit(_parse_simple(self.toks, *init, self.scopes))
        cond = self._collect_until(";")
        step = self._collect_until(")")
        return (_cond_stmt(self.texts, *cond, line, self.scopes) if cond[0] < cond[1] else None,
                _parse_simple(self.toks, *step, self.scopes) if step[0] < step[1] else None)

    def parse_statement(self) -> None:
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
            self.parse_block()
            self.scopes.close()
        elif text == ";":
            self.pos += 1
        elif text == "if":
            self.emit(self._parse_cond("if"))
            cond_block = self.current
            ends = [self._parse_body(self.new_block(cond_block))]
            if self.peek() == "else":
                self.pos += 1
                ends.append(self._parse_body(self.new_block(cond_block)))
            else:
                ends.append(cond_block)  # a false condition goes straight to the join
            self.current = self.new_block(*ends)
        elif text in ("for", "while"):
            cond, step = self._parse_loop_head(text, line)
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
                self.link([self.current], header)
            # Taken even with an empty condition: liveness may-analysis only
            # gains safety from a conservative loop-exit edge.
            self.current = self.new_block(header, *jumps["break"])
            if text == "for":
                self.scopes.close()
        elif text == "do":
            self.pos += 1
            body = self.new_block(self.ensure_current())
            jumps = {"break": [], "continue": []}
            end = self._parse_body(body, jumps)
            cond_block = self.current = self.new_block(end, *jumps["continue"])
            self.emit(self._parse_cond("while"))
            self.expect(";")
            self.link([cond_block], body)
            self.current = self.new_block(cond_block, *jumps["break"])
        elif text == "return":
            self.pos += 1
            lo, hi = self._collect_until(";")
            uses = frozenset(self.scopes.reads(self.texts, lo, hi, line))
            self.emit(Stmt("return", uses, frozenset(), line, self.texts[lo:hi]))
            self.current = None
        elif text in ("break", "continue"):
            self.pos += 1
            self.expect(";")
            if not self.loop_stack:
                raise ParseError(f"{text} outside a loop", line=line)
            self.loop_stack[-1][text].append(self.ensure_current())
            self.current = None
        else:
            self.emit(_parse_simple(self.toks, *self._collect_until(";"), self.scopes))


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


def _find_function(toks: Tokens, name: str) -> tuple[int, int]:
    """(body '{' index, params '(' index) of a top-level definition."""
    texts, _, spans = toks
    n = len(texts)
    for i in _top_level(spans, 0, n):
        if texts[i] == name and i + 1 < n and texts[i + 1] == "(":
            body_open = i + spans[i + 1] + 2  # the token after the ')'
            if body_open < n and texts[body_open] == "{":
                return body_open, i + 1
    raise ParseError(f"function '{name}' not found")


def _parse_params(toks: Tokens, lo: int, hi: int, scopes: _Scopes) -> None:
    """Declare the parameters ``[lo, hi)``, each read as a declaration, in the outermost scope."""
    texts, _, spans = toks
    for start, end in _split_top_level(texts, spans, lo, hi, ","):
        if start < end:
            _parse_simple(toks, start, end, scopes)
    scopes.unbound.clear()  # a parameter that declares nothing reads nothing either


def parse_function(source: str, signature: str) -> FunctionIr:
    """Parse the function matching ``signature`` (a declarator or bare name).

    Statements come out in source layout order; declarations with initializers
    carry the declared name in their def set. Unsupported constructs (goto,
    switch, labels) raise ParseError naming the construct and line; nesting
    too deep for Python's recursion limit raises one too.
    """
    name = signature_name(signature)
    toks = tokenize(source)
    body_open, paren_open = _find_function(toks, name)
    scopes = _Scopes()
    _parse_params(toks, paren_open + 1, body_open - 1, scopes)
    try:
        body = _BodyParser(toks, body_open, scopes).parse_function_body()
    except RecursionError:
        raise ParseError("nesting too deep") from None
    stmts, successors = link_statements(*body)
    return FunctionIr(name, scopes.table, stmts, successors)


_NO_SPACE_AFTER = {"(", "[", ".", "->", "!", "~", "++", "--"}
_NO_SPACE_BEFORE = {")", "]", ",", ";", ".", "->", "++", "--"}


def _render_tokens(tokens: list[str]) -> str:
    out = []
    for i, text in enumerate(tokens):
        if i and _needs_space(tokens[i - 1], text):
            out.append(" ")
        out.append(text)
    return "".join(out)


def _needs_space(prev: str, cur: str) -> bool:
    if prev in _NO_SPACE_AFTER:
        return False
    if cur in _NO_SPACE_BEFORE:
        return False
    if cur in ("(", "[") and prev[0] in _ID_START:
        return False
    if prev == "*" and cur[0] in _ID_START:
        return False
    return True


# ---------------------------------------------------------------------------
# Debug dump.


def dump_ir(ir: FunctionIr) -> str:
    """Each statement with its use/def sets and successors, for the --dump-ir flag."""
    lines = [f"function {ir.name}", "vector symbols:"]
    for name in sorted(ir.symbol_table):
        lines.append(f"  {name}: {ir.symbol_table[name].name()}")
    for s in ir.stmts:
        use = ", ".join(sorted(s.uses)) or "-"
        deff = ", ".join(sorted(s.defs)) or "-"
        nxt = ", ".join(f"s{t}" for t in ir.successors[s.stmt_id]) or "-"
        lines.append(f"s{s.stmt_id} [{s.kind}] line {s.line}: {s.text}")
        lines.append(f"    use: {use}   def: {deff}   next: {nxt}")
    return "\n".join(lines) + "\n"
