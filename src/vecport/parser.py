"""Statement-level front end for RVV intrinsic C functions.

Parses one function out of a C translation unit into a flat statement list
with vector use/def sets and the successors of each statement. The
supported subset is what intrinsic kernels actually need: declarations,
assignments, calls, compound statements, if/else, for, while, do-while,
break/continue, return. goto and switch are rejected with a located
diagnostic rather than analyzed wrongly.

The lexer is one ``findall`` of one master regex with one capture group,
so it yields plain strings, and makes no object per token: it returns three
parallel columns, each token's text, its line and its bracket span.
Comments, preprocessor directives (carried on the newline before them) and
blanks are skipped in place, so every token's line is the line it is
written on. A token's kind follows from its first character, so
no column holds it. The lexer also pairs every bracket, the one place
nesting is decided: text whose brackets do not balance is rejected with its
line, and each opener's span leads to its closer, so later scans step over
whole groups. The statement readers take ``(lo, hi)`` index ranges into the
columns, and a statement keeps its token texts. Parameters are read by the
same declaration reader as body statements.

The body parser builds no statement tree and no basic blocks: it numbers
each statement as it reads it and adds its id to the successor sets of the
statements that lead to it, so each statement's successors,
``FunctionIr.successors``, are complete once the body is read. A ``for``
step is read before the loop body but emitted after it, and a ``while``
loop is a ``for`` with no init and no step. Each name resolves as it is
read, through a stack of block scopes (``_Scopes``), so a statement is final
when it is read. Each ``{`` block, each ``for`` and each branch or loop body
opens a scope; a vector that shadows another, or that reuses a name the
function gave another type, gets an IR name ``x@k``. A statement that
leaves the function has no successor, and one that no path reaches is
dropped.

Each statement carries its uses and defs as two ``int`` masks: each new IR
name takes the next bit as it is declared, so bit k stands for the k-th
name of the symbol table, and ``FunctionIr.names_in`` turns a mask back into
names. Scalar and pointer-typed values are invisible to the analysis: they
have no bit, so a ``vsetvl`` result or a pointer bump contributes nothing.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count
from string import ascii_letters
from .errors import ParseError
from .rvv_types import _BY_NAME, VectorType


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

# The words of a declaration's type other than a vector type name: tags,
# qualifiers and scalar type names.
_DECL_WORDS = {
    "struct", "union", "enum", *_QUALIFIERS,
    "void", "char", "short", "int", "long", "float", "double", "_Bool", "bool",
    "unsigned", "signed", "size_t", "ptrdiff_t", "ssize_t", "intptr_t",
    "uintptr_t", "wchar_t",
}
_DECL_WORDS |= {f"{s}int{w}_t" for s in ("", "u") for w in (8, 16, 32, 64)}
_DECL_WORDS |= {f"{s}int_fast{w}_t" for s in ("", "u") for w in (8, 16, 32, 64)}
_DECL_WORDS |= {f"{s}int_least{w}_t" for s in ("", "u") for w in (8, 16, 32, 64)}

# What starts a statement that is not a simple one, or that the parser rejects.
_STATEMENT_WORDS = frozenset({
    "{", ";", "if", "for", "while", "do", "return", "break", "continue",
    "goto", "switch", "case", "default",
})

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# One master pattern whose matches tile the source, with one group: the
# piece after a run of blanks. The piece is an identifier; a character that
# starts no longer token; a newline, with the directive on the line it opens,
# if any; a comment, or a ``/*`` that no ``*/`` closes; a number; a string or
# char literal; a multi-character operator, longest first; or else any one
# character, or none at the end. A directive starts a line after spaces or
# tabs only and runs on through lines continued by a backslash (LF or CRLF).
# It rides on its newline because a null directive ``#`` and a stray ``#``
# mid-line have the same text; ``tokenize`` puts a newline before the source,
# so a directive on the first line has one too. A literal ends on its line:
# neither a raw newline nor a backslash-newline continues it, so a lone quote
# is left as one character.
_LEX_RE = re.compile(
    r"""
    [ \t\r\f\v]*
    ( [A-Za-z_]\w*
    | [;,()\[\]{}?:~]
    | \n(?:[ \t]*\#(?:[^\n]*\\[ \t]*\r?\n)*[^\n]*)?
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
    line = 0  # the newline put before the source starts line 1
    for tok in _LEX_RE.findall("\n" + source):
        first = tok[:1]
        if first in _TOKEN_START or (first in _QUOTES and len(tok) > 1):
            texts.append(tok)
            lines.append(line)
        elif first == "\n":  # and the directive it carries, if any
            line += tok.count("\n")
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

    ``uses``/``defs`` are masks over the function's vectors: bit k stands
    for the k-th IR name of the symbol table (``FunctionIr.names_in``). Both
    may hold the same bit (an accumulator update reads and writes it).
    ``tokens`` holds the texts of the statement's tokens, a ``return``'s
    without its keyword; ``text`` renders them when read, since the analysis
    itself reads the text of one statement at most.
    """

    kind: str
    uses: int
    defs: int
    line: int
    tokens: list[str] = field(repr=False)
    stmt_id: int = -1  # its place in layout order, set as it is read; -1 if unreachable

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

    def names_in(self, mask: int) -> frozenset[str]:
        """The IR names whose bits ``mask`` sets: bit k is the k-th name of ``symbol_table``."""
        return frozenset(name for k, name in enumerate(self.symbol_table) if mask >> k & 1)


# ---------------------------------------------------------------------------
# Names, block by block, and the statement readers that resolve them.

class _Scopes:
    """The names a function body sees, block by block (C11 §6.2.1).

    ``table`` maps IR names to vector types, and each new IR name takes the
    next bit, so bit k stands for the k-th name of the table. ``visible``
    maps each name in scope to its vector's bit, or to 0 if its innermost
    declaration is no vector. Each open scope keeps what its declarations
    hid (None where nothing was declared), for ``close`` to restore, so a
    read is one lookup. A vector keeps its source name unless a vector of
    that name is in scope, visible or hidden, or the table gives the name
    another type; then it is the first ``name@k`` (k >= 2) the table lacks.
    ``unbound`` maps each name read where nothing declares it to the line of
    its first read.
    """

    def __init__(self):
        self.table: dict[str, VectorType] = {}
        self.bits: dict[str, int] = {}  # the bit of each IR name, in table order
        self.visible: dict[str, int] = {}
        self.hidden: list[dict[str, int | None]] = [{}]  # one per open scope, innermost last
        self.unbound: dict[str, int] = {}

    def open(self) -> None:
        self.hidden.append({})

    def close(self) -> None:
        for name, prior in self.hidden.pop().items():
            if prior is None:
                del self.visible[name]
            else:
                self.visible[name] = prior

    def declare(self, name: str, vt: VectorType | None, line: int) -> int:
        """Enter a declarator in the innermost scope, where it is visible from its
        initializer on (C11 §6.2.1p7); its bit if it is a vector, else 0."""
        hid = self.hidden[-1]
        if name not in hid:
            hid[name] = self.visible.get(name)
        elif vt is not None and (bit := self.visible[name]):
            if self.table[next(ir for ir, b in self.bits.items() if b == bit)] != vt:
                raise ParseError(f"'{name}' redeclared with a different vector type", line=line)
            return bit
        if vt is None:
            self.visible[name] = 0
            return 0
        if name in self.unbound:
            raise ParseError(f"vector value '{name}' referenced before its declaration",
                             line=self.unbound[name])
        ir = name
        # Only a name some vector has taken can be hidden as a vector.
        if name in self.table and (self.table[name] != vt or any(
                h.get(name) for h in self.hidden)):
            ir = next(ir for k in count(2) if (ir := f"{name}@{k}") not in self.table)
        # A name the table has keeps its bit: sibling blocks share it.
        bit = self.visible[name] = self.bits.setdefault(ir, 1 << len(self.bits))
        self.table[ir] = vt
        return bit

    def reads(self, texts: list[str], lo: int, hi: int, line: int) -> int:
        """The mask of the vectors ``texts[lo:hi]`` reads; skips callees, members, keywords."""
        found = 0
        visible, unbound = self.visible, self.unbound
        for i in range(lo, hi):
            text = texts[i]
            if text[0] not in _ID_START or text in _KEYWORDS:
                continue
            if i + 1 < hi and texts[i + 1] == "(":
                continue
            if i > lo and texts[i - 1] in (".", "->"):
                continue
            bit = visible.get(text)
            if bit is None:
                unbound.setdefault(text, line)
            else:
                found |= bit
        return found


# The shared token columns: the texts, lines and spans that ``tokenize`` returns.
Tokens = tuple[list[str], list[int], list[int]]


def _parse_simple(toks: Tokens, lo: int, hi: int, scopes: _Scopes) -> Stmt:
    """The simple statement ``[lo, hi)``; a declaration enters its names in the
    innermost scope."""
    texts, lines, spans = toks
    line = lines[lo]
    i = lo
    while i < hi and texts[i] in _QUALIFIERS:
        i += 1
    if i < hi and ((text := texts[i]) in _DECL_WORDS or text in _BY_NAME):  # a type word
        kind, uses, defs = _read_decl(texts, spans, i, hi, scopes, line)
    else:
        kind, uses, defs = _read_expr_stmt(texts, spans, lo, hi, scopes, line)
    return Stmt(kind, uses, defs, line, texts[lo:hi])


def _cond_stmt(texts: list[str], lo: int, hi: int, line: int, scopes: _Scopes) -> Stmt:
    """A condition: it reads ``[lo, hi)``, declares nothing, and sits at ``line``."""
    return Stmt("scalar_other", scopes.reads(texts, lo, hi, line), 0, line, texts[lo:hi])


def _read_decl(texts: list[str], spans: list[int], i: int, hi: int, scopes: _Scopes,
               line: int) -> tuple[str, int, int]:
    """A declaration whose type words start at ``i``: its kind, uses and defs."""
    base_vec: VectorType | None = None
    while i < hi:
        text = texts[i]
        if text in _BY_NAME:
            base_vec = _BY_NAME[text]
        elif text in ("struct", "union", "enum"):
            i += 1  # tag name follows
        elif text not in _DECL_WORDS:
            break
        i += 1

    uses = defs = 0
    while i < hi:  # one declarator, up to its top-level ',' or the end
        pointer = False
        while i < hi and texts[i] in _DECLARATOR_PREFIX:
            pointer = pointer or texts[i] == "*"
            i += 1
        name, init = i, 0  # init: just past the declarator's first '=', at any depth
        while i < hi and (text := texts[i]) != ",":
            if not init and (text == "=" or spans[i] and "=" in texts[i:i + spans[i]]):
                init = texts.index("=", i) + 1
            i += spans[i] + 1
        if name < i and texts[name][0] in _ID_START:
            array = name + 1 < i and texts[name + 1] == "["
            bit = scopes.declare(texts[name], None if pointer or array else base_vec, line)
            if init:
                defs |= bit
                uses |= scopes.reads(texts, init, i, line)
        i += 1
    return "decl", uses, defs


def _read_expr_stmt(texts: list[str], spans: list[int], lo: int, hi: int, scopes: _Scopes,
                    line: int) -> tuple[str, int, int]:
    """An expression statement: its kind, uses and defs."""
    k = lo
    while k < hi and texts[k] not in _ASSIGN_OPS:  # the first top-level one
        k += spans[k] + 1
    if k >= hi:
        has_call = any(texts[i][0] in _ID_START and texts[i] not in _KEYWORDS
                       and texts[i + 1] == "(" for i in range(lo, hi - 1))
        return "call" if has_call else "scalar_other", scopes.reads(texts, lo, hi, line), 0
    uses = scopes.reads(texts, k + 1, hi, line)
    if k == lo + 1 and texts[lo][0] in _ID_START:
        defs = scopes.reads(texts, lo, k, line)
        if texts[k] != "=":  # compound op reads the target too
            uses |= defs
        return "assign", uses, defs
    return "assign", uses | scopes.reads(texts, lo, k, line), 0


# ---------------------------------------------------------------------------
# Function-body parsing, straight into statement successors.

class _BodyParser:
    """Reads a function body and gives each statement its id and successors as it goes.

    This is syntax-directed translation with backpatching (Aho et al.,
    *Compilers*, 2nd ed., §6.7), applied to statements: ``pending`` holds
    the keys of the successor sets that lead to the next statement read, and
    ``emit`` numbers that statement, adds its id to each of them and leaves
    only its own set pending. Each open loop keeps its break and continue
    sources until its exit and its back edges are known. After a jump or a
    return nothing is pending, and a statement read then is unreachable: it
    is read for its scopes and dropped. Since control flow is structured,
    that is all reachability takes, and ids come out in layout order.

    Each loop gets a "first statements" set, which its back edges take:
    pending where the loop starts, it gathers the loop's test, or what the
    body begins with where no test comes first (``for (;;)``, ``do``).

    Each nesting level costs two Python frames (``parse_statement`` and
    ``parse_block`` or ``_parse_body``), so nesting too deep for the
    recursion limit surfaces as a RecursionError.
    """

    def __init__(self, toks: Tokens, start: int, scopes: _Scopes):
        self.toks = toks
        self.texts, self.lines, self.spans = toks
        self.pos = start
        self.scopes = scopes
        self.stmts: list[Stmt] = []
        # Successor ids by statement id, and by a negative key for each "first
        # statements" set; -1 is the function's entry, which nothing reads.
        self.succs: dict[int, set[int]] = {-1: set()}
        self.keys = count(-2, -1)
        self.pending = {-1}  # replaced, never changed in place
        self.loop_stack: list[dict[str, set[int]]] = []  # break/continue sources

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

    def emit(self, stmt: Stmt) -> None:
        if self.pending:  # else it is unreachable
            stmt.stmt_id = sid = len(self.stmts)
            self.stmts.append(stmt)
            succs = self.succs
            for key in self.pending:
                succs[key].add(sid)
            succs[sid] = set()
            self.pending = {sid}

    def _first(self) -> set[int]:
        """A "first statements" set: pending from here on, if code reaches here,
        it gathers the ids of the statements read next."""
        first: set[int] = set()
        if self.pending:
            key = next(self.keys)
            self.succs[key] = first
            self.pending = self.pending | {key}
        return first

    def _loop_back(self, jumps: dict[str, set[int]], last: Stmt | None, first: set[int]) -> None:
        """Ends a loop body: ``last`` (a step or a ``do`` condition) follows the
        body and its continue sources, and each back edge leads to ``first``."""
        self.pending = self.pending | jumps["continue"]
        if last is not None:
            self.emit(last)
        for key in self.pending:
            self.succs[key] |= first

    def parse_block(self) -> None:
        self.expect("{")
        while self.peek() != "}":
            self.parse_statement()
        self.expect("}")

    def _parse_body(self, loop: dict[str, set[int]] | None = None) -> None:
        """One statement, a branch's or a loop's body.

        The statement is a block scope of its own even without braces (C11
        §6.8.4p3, §6.8.5p5), so what it declares ends with it. A loop body's
        break and continue sources are collected in ``loop``.
        """
        if loop is not None:
            self.loop_stack.append(loop)
        self.scopes.open()
        self.parse_statement()
        self.scopes.close()
        if loop is not None:
            self.loop_stack.pop()

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
        if text not in _STATEMENT_WORDS:  # a simple statement, or a label
            # An identifier is never the body's last token, its '}', so one follows.
            if text[0] in _ID_START and text not in _KEYWORDS and self.texts[self.pos + 1] == ":":
                raise ParseError(f"unsupported construct: label '{text}'", line=line)
            self.emit(_parse_simple(self.toks, *self._collect_until(";"), self.scopes))
        elif text in ("goto", "switch"):
            raise ParseError(f"unsupported construct: {text}", line=line)
        elif text in ("case", "default"):
            raise ParseError(f"unsupported construct: {text} label", line=line)
        elif text == "{":
            self.scopes.open()
            self.parse_block()
            self.scopes.close()
        elif text == ";":
            self.pos += 1
        elif text == "if":
            self.emit(self._parse_cond("if"))
            branch = self.pending
            self._parse_body()
            if self.peek() == "else":
                self.pos += 1
                then_end, self.pending = self.pending, branch
                self._parse_body()
                self.pending = self.pending | then_end
            else:
                self.pending = self.pending | branch  # a false condition goes straight to the join
        elif text in ("for", "while"):
            cond, step = self._parse_loop_head(text, line)
            first = self._first()  # what the loop's head leads to: its test, or its body
            if cond is not None:
                self.emit(cond)
            head = self.pending
            jumps: dict[str, set[int]] = {"break": set(), "continue": set()}
            self._parse_body(jumps)
            self._loop_back(jumps, step, first)
            # With no test the loop is still left from its head, which its
            # entry and back edges reach: liveness may-analysis only gains
            # safety from a conservative loop-exit edge.
            exits = head if cond is not None else head | self.pending
            self.pending = exits | jumps["break"]
            if text == "for":
                self.scopes.close()
        elif text == "do":
            self.pos += 1
            first = self._first()
            jumps = {"break": set(), "continue": set()}
            self._parse_body(jumps)
            cond = self._parse_cond("while")
            self.expect(";")
            self._loop_back(jumps, cond, first)
            self.pending = self.pending | jumps["break"]
        elif text == "return":
            self.pos += 1
            lo, hi = self._collect_until(";")
            uses = self.scopes.reads(self.texts, lo, hi, line)
            self.emit(Stmt("return", uses, 0, line, self.texts[lo:hi]))
            self.pending = set()
        elif text in ("break", "continue"):
            self.pos += 1
            self.expect(";")
            if not self.loop_stack:
                raise ParseError(f"{text} outside a loop", line=line)
            self.loop_stack[-1][text].update(self.pending)
            self.pending = set()


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
    commas = [k for k in _top_level(spans, lo, hi) if texts[k] == ","]
    for start, end in zip([lo, *(k + 1 for k in commas)], [*commas, hi]):
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
    body = _BodyParser(toks, body_open, scopes)
    try:
        body.parse_block()  # the outermost block shares the parameters' scope
    except RecursionError:
        raise ParseError("nesting too deep") from None
    successors = {  # most statements have one successor, which needs no sort
        sid: tuple(sorted(succ) if len(succ := body.succs[sid]) > 1 else succ)
        for sid in range(len(body.stmts))
    }
    return FunctionIr(name, scopes.table, body.stmts, successors)


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
    """Each statement with its use and def masks, decoded into sorted IR names,
    and its successors, for the --dump-ir flag."""
    lines = [f"function {ir.name}", "vector symbols:"]
    for name in sorted(ir.symbol_table):
        lines.append(f"  {name}: {ir.symbol_table[name].name()}")
    for s in ir.stmts:
        use = ", ".join(sorted(ir.names_in(s.uses))) or "-"
        deff = ", ".join(sorted(ir.names_in(s.defs))) or "-"
        nxt = ", ".join(f"s{t}" for t in ir.successors[s.stmt_id]) or "-"
        lines.append(f"s{s.stmt_id} [{s.kind}] line {s.line}: {s.text}")
        lines.append(f"    use: {use}   def: {deff}   next: {nxt}")
    return "\n".join(lines) + "\n"
