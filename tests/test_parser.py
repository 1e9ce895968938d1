import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP_NESTING
from oracles import print_function, reference_parse, reference_tokenize
from vecport.errors import ParseError
from vecport.liveness import analyze_source
from vecport.parser import (
    _ID_START, FunctionIr, parse_function, signature_name, tokenize, validate_signature,
)

VEC_ADD_SIG = "void vec_add_s32(const int32_t *a, const int32_t *b, int32_t *c, size_t n)"
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ANALYZE = GOLDEN / "analyze"


# --- lexer ------------------------------------------------------------------

def _kind(text):
    """A token's kind, as its first character tells it (after a '.', its second)."""
    if text[0] in _ID_START:
        return "id"
    if text[0].isdigit() or text[0] == "." and text[1:2].isdigit():
        return "num"
    return "str" if text[0] in "\"'" else "punct"


def _spans(source):
    texts, lines, _ = tokenize(source)
    return [(text, _kind(text), line) for text, line in zip(texts, lines)]


def test_tokens_after_multiline_block_comment_keep_their_line():
    src = "int a; /* one\ntwo\n  three */ b = 1;\n  c;"
    assert _spans(src) == [
        ("int", "id", 1), ("a", "id", 1), (";", "punct", 1),
        ("b", "id", 3), ("=", "punct", 3), ("1", "num", 3),
        (";", "punct", 3), ("c", "id", 4), (";", "punct", 4),
    ]


def test_comment_markers_inside_literals_are_not_comments():
    src = 's = "//"; t = \'/*\'; u = "/* x */"; // gone\nv = \'/\';'
    assert [t for t in tokenize(src)[0] if _kind(t) == "str"] == [
        '"//"', "'/*'", '"/* x */"', "'/'",
    ]
    assert tokenize(src)[0][-4:] == ["v", "=", "'/'", ";"]


def test_continued_directive_is_skipped():
    src = "  #define A \\\n  1 \\  \t\n  + 2\nint x;"
    assert _spans(src) == [("int", "id", 4), ("x", "id", 4), (";", "punct", 4)]
    # A backslash that is not the last non-blank character continues nothing.
    assert tokenize("#define A \\ x\nint y;")[0] == ["int", "y", ";"]


def test_crlf_continued_directive_is_skipped():
    for eol in ("\n", "\r\n"):
        src = f"#define X 1 \\{eol}  + 2 \\ \t{eol}  - 3{eol}int y;"
        assert _spans(src) == [("int", "id", 4), ("y", "id", 4), (";", "punct", 4)]


def test_hash_after_code_is_not_a_directive():
    with pytest.raises(ParseError, match="unexpected character '#'"):
        tokenize("int a; #define X 1\n")


def test_unterminated_block_comment_names_its_line():
    with pytest.raises(ParseError, match=r"unterminated block comment \(line 3\)"):
        tokenize("int a;\n\nint b; /* never closed\nint c;\n")


def test_stray_character_names_its_line():
    with pytest.raises(ParseError, match=r"unexpected character '@' \(line 3\)"):
        tokenize("int a;\n/* x\n y */ int @;")


@pytest.mark.parametrize("source", ['"x\ny"\nz', "c = 'a\nb';", 's = "x\\\ny";'])
def test_literal_cannot_span_a_newline(source):
    with pytest.raises(ParseError, match=r"unexpected character ['\"].*\(line 1\)"):
        tokenize(source)


@pytest.mark.parametrize("source", ["", "   ", " \t\n\n  \t \n", "\f\v\r\n"])
def test_blank_source_has_no_tokens(source):
    assert tokenize(source) == ([], [], [])


@pytest.mark.parametrize("tail", ["  ", "\t", " \t \t", "\n  \t"])
def test_trailing_blanks_end_the_token_stream(tail):
    assert _spans("int x;" + tail) == [
        ("int", "id", 1), ("x", "id", 1), (";", "punct", 1),
    ]


def test_tokens_after_a_blank_run_keep_their_line():
    assert _spans("   \t x  y\n \f\tz") == [
        ("x", "id", 1), ("y", "id", 1), ("z", "id", 2),
    ]


@pytest.mark.parametrize("source", ["int a; \t #define X 1\n", "\n\nx = 1;  # y"])
def test_blanks_then_hash_mid_line_is_a_stray_character(source):
    line = source.count("\n", 0, source.index("#")) + 1
    with pytest.raises(ParseError, match=rf"^unexpected character '#' \(line {line}\)$"):
        tokenize(source)


@pytest.mark.parametrize("blank", ["\r", "\f", "\v", " \r", "\f\t"])
def test_only_spaces_and_tabs_may_indent_a_directive(blank):
    with pytest.raises(ParseError, match=r"^unexpected character '#' \(line 2\)$"):
        tokenize(f"int a;\n{blank}#define X 1\nint b;")


@pytest.mark.parametrize("source, line", [
    ("  #include <x>\nint a;", 2), ("#define X\nint a;", 2), ("\t# x \\\n y\nint a;", 3),
])
def test_directive_at_the_start_of_the_text_is_skipped(source, line):
    assert _spans(source) == [("int", "id", line), ("a", "id", line), (";", "punct", line)]


def test_indented_directive_after_a_blank_line_is_skipped():
    assert _spans("int a;\n\n \t #define X \\\n 1\n  b;") == [
        ("int", "id", 1), ("a", "id", 1), (";", "punct", 1),
        ("b", "id", 5), (";", "punct", 5),
    ]


def test_blanks_then_unterminated_block_comment_names_its_line():
    with pytest.raises(ParseError, match=r"^unterminated block comment \(line 2\)$"):
        tokenize("a;\n  \t/* never closed\n")


@pytest.mark.parametrize("char", ["@", "$", "`"])
def test_blanks_then_stray_character_names_it(char):
    message = rf"^unexpected character '{re.escape(char)}' \(line 2\)$"
    with pytest.raises(ParseError, match=message):
        tokenize(f"a;\n \t {char} b;")


_LEX_FRAGMENTS = [
    "x = a + b;",
    "/* one\n  two */",
    "// c /* d \"e\"",
    '"//" "/*" "a\\"b"',
    "'/' '*' '\\''",
    "\tvint32m1_t v = f(p, 0x1fu, 1.5e3f, .5);",
    "a->b <<= c >= d ... ;",
    "{ [ ( ) ] }",
    "\r\f\vq\r;",
    "y; \t ",
]
_LEX_DIRECTIVES = ["#include <a.h>", "#define M(x) \\\n  (x) \\   \n  + 1", "#if 0 // x"]


def test_token_positions_address_their_text_on_random_splices():
    rng = random.Random(20261018)
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.25:
                indent = rng.choice(["", "  ", "\t", " \t  "])
                parts.append("\n" + indent + rng.choice(_LEX_DIRECTIVES) + "\n")
            else:
                gap = rng.choice([" ", "\n", "\t", " \n  ", "\r\n", "\f"])
                parts.append(rng.choice(_LEX_FRAGMENTS) + gap)
        src = "".join(parts)
        lines = src.split("\n")
        ends = {}  # line number -> where the previous token on that line ended
        texts, tok_lines, _ = tokenize(src)
        for text, line in zip(texts, tok_lines):
            at = lines[line - 1].find(text, ends.get(line, 0))
            assert at >= 0, (src, text, line)
            ends[line] = at + len(text)


_BRACKET_ATOMS = ["x", "n1", ";"]


def _group(inner):
    return st.tuples(st.sampled_from(["()", "[]", "{}"]), st.lists(inner, max_size=3)).map(
        lambda p: [p[0][0], *(t for part in p[1] for t in part), p[0][1]]
    )


@st.composite
def _bracket_strings(draw):
    """Balanced piece lists, then maybe one insertion or deletion: random
    brackets alone are almost never balanced."""
    nest = st.recursive(st.sampled_from(_BRACKET_ATOMS).map(lambda t: [t]), _group,
                        max_leaves=12)
    pieces = [t for part in draw(st.lists(nest, max_size=4)) for t in part]
    at = draw(st.integers(0, len(pieces)))
    edit = draw(st.sampled_from(["keep", "insert", "delete"]))
    if edit == "insert":
        pieces.insert(at, draw(st.sampled_from([*"()[]{}", *_BRACKET_ATOMS])))
    elif edit == "delete" and at < len(pieces):
        del pieces[at]
    return pieces


def _partners(pieces):
    """Opener index -> closer index by a plain stack, or None if unbalanced."""
    stack, partner = [], {}
    for i, piece in enumerate(pieces):
        if piece in "([{":
            stack.append(i)
        elif piece in ")]}":
            if not stack or "([{".index(pieces[stack[-1]]) != ")]}".index(piece):
                return None
            partner[stack.pop()] = i
    return None if stack else partner


@settings(max_examples=300, deadline=None)
@given(_bracket_strings())
def test_tokenize_pairs_exactly_the_balanced_bracket_strings(pieces):
    partner = _partners(pieces)
    if partner is None:
        message = r"^(mismatched '[)\]}]'|unbalanced (parentheses|brackets|braces)) \(line 1\)$"
        with pytest.raises(ParseError, match=message):
            tokenize(" ".join(pieces))
    else:
        texts, _, spans = tokenize(" ".join(pieces))
        assert texts == pieces
        assert {i: i + span for i, span in enumerate(spans) if span} == partner


_DIFF_SEPARATORS = ["", " ", "\t", "\n", "\r\n", " \f", "\v", "\r"]
_DIFF_FRAGMENTS = [
    "x", "_y1", "vint32m1_t", "if", "0x1Fu", "1.5e3f", "1.", "12", ".5", "1e+5", ".", "...",
    "..", "/", "/=", "*", "*/", "/* c\r\n d */", "// line", '"//"', "'/*'", '"/* x */"',
    "'//'", '"a\\"b"', "'\\''", "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "+=", "-=", "*=", "%=", "&=", "|=", "^=", "=", "<", ">", "+",
    "-", "&", "|", "^", "!", "~", "?", ":", ";", ",", "%",
    "\n#", "\n#define X 1", "\n  #if 0 // x", "\n\t#endif", "\n \t# define M(a) \\\n (a)",
    "\n#x \\ \t\r\n y \\\n", "\n#y \\ z",
    # No newline of their own: a directive at the start of the text or after a
    # newline separator, a stray '#' mid-line.
    "#define X 1", "  #if 0 // x", "\t# x \\\n y",
]
# Each makes the text fail, or may: the reference decides which error, and where.
_DIFF_HOSTILE = [
    '"', "'", '"\n"', "'\\\n'", "@", "$", "`", "\\", "\0", "#", "x #", "\n\f#define X",
    "\n\r#", "/*", "/* never closed\n", "(", ")", "[", "]", "{", "}", "(]", "{)", "é",
]
_DIFF_CLOSER_OF = {"(": ")", "[": "]", "{": "}", "(\n": ")", "{\r\n": "}"}


@st.composite
def _lexer_texts(draw):
    """Fragments after blank runs, in brackets that each ``None`` closes (the
    rest close at the end), then maybe one hostile fragment inserted."""
    pieces, closers = [], []
    choices = st.sampled_from([*_DIFF_FRAGMENTS, *_DIFF_CLOSER_OF, None, None])
    for sep, frag in draw(st.lists(st.tuples(st.sampled_from(_DIFF_SEPARATORS), choices),
                                   max_size=20)):
        if frag is None:
            pieces.append(sep + (closers.pop() if closers else ""))
        else:
            pieces.append(sep + frag)
            if frag in _DIFF_CLOSER_OF:
                closers.append(_DIFF_CLOSER_OF[frag])
    pieces += reversed(closers)
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_DIFF_HOSTILE)))
    return "".join(pieces)


@settings(max_examples=600, deadline=None, report_multiple_bugs=False)
@given(_lexer_texts())
def test_lexer_matches_the_reference_lexer(text):
    try:
        want = reference_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    assert list(zip(*tokenize(text))) == [(t.text, t.line, t.span) for t in want]
    assert [_kind(t.text) for t in want] == [t.kind for t in want]


# --- use/def extraction -----------------------------------------------------

def _last_use_def(vector_params, stmt):
    """USE/DEF of ``stmt`` parsed as the last statement of a function body, as names."""
    params = ", ".join(p for p in (vector_params, "int32_t *c, size_t n, size_t vl") if p)
    ir = parse_function(f"void f({params}) {{ {stmt} }}", "f")
    return ir.names_in(ir.stmts[-1].uses), ir.names_in(ir.stmts[-1].defs)


def test_use_def_plain_call_assignment():
    uses, defs = _last_use_def(
        "vint32m2_t va, vint32m2_t vb, vint32m2_t vc",
        "vc = __riscv_vadd_vv_i32m2(va, vb, vl);",
    )
    assert uses == {"va", "vb"}
    assert defs == {"vc"}


def test_use_def_accumulator_reads_and_writes():
    uses, defs = _last_use_def(
        "vint32m2_t vacc, vint32m2_t va, vint32m2_t vb",
        "vacc = __riscv_vmacc_vv_i32m2(vacc, va, vb, vl);",
    )
    assert uses == {"vacc", "va", "vb"}
    assert defs == {"vacc"}


def test_use_def_scalar_vsetvl_is_invisible():
    uses, defs = _last_use_def("", "size_t vl = __riscv_vsetvl_e32m2(n);")
    assert uses == set()
    assert defs == set()


def test_use_def_masked_form_counts_mask_and_merge():
    uses, defs = _last_use_def(
        "vint32m2_t dst, vbool16_t m, vint32m2_t va, vint32m2_t vb",
        "dst = __riscv_vadd_vv_i32m2_m(m, va, vb, vl);",
    )
    assert uses == {"m", "va", "vb"}
    assert defs == {"dst"}


def test_use_def_decl_with_initializer():
    uses, defs = _last_use_def(
        "vint32m2_t va", "vint32m2_t vc = __riscv_vmv_v_v_i32m2(va, vl);"
    )
    assert uses == {"va"}
    assert defs == {"vc"}


def test_use_def_store_through_pointer():
    uses, defs = _last_use_def("vint32m2_t vc", "__riscv_vse32_v_i32m2(c, vc, vl);")
    assert uses == {"vc"}
    assert defs == set()


@pytest.mark.parametrize("stmt", ["n = c->v;", "n = c[0].v;"])
def test_use_def_member_named_like_a_vector_is_not_a_use(stmt):
    assert _last_use_def("vint32m2_t v", stmt) == (set(), set())


def test_use_def_struct_declaration_declares_no_vector():
    # The struct hides the vector parameter it shares a name with.
    assert _last_use_def("vint32m2_t v", "{ struct pair v; n = v; }") == (set(), set())


# --- signatures ----------------------------------------------------------

def test_signature_name_variants():
    assert signature_name(VEC_ADD_SIG) == "vec_add_s32"
    assert signature_name("vec_add_s32") == "vec_add_s32"
    assert signature_name("int16_t max_s16(const int16_t *src, size_t n)") == "max_s16"
    assert signature_name("static inline vint32m2_t helper(vint32m2_t x)") == "helper"


def test_validate_signature_rejects_non_declarators():
    with pytest.raises(ParseError):
        validate_signature("not a signature")
    with pytest.raises(ParseError):
        validate_signature("just_a_name")
    assert validate_signature(VEC_ADD_SIG) == "vec_add_s32"


# --- whole-function parsing ------------------------------------------------

def test_vec_add_parses_to_a_loop(vec_add_case):
    ir = parse_function(vec_add_case.native_text, VEC_ADD_SIG)
    # s0 is the loop header's condition; s1..s9 the body, whose last
    # statement is the back edge. The loop's exit leaves the function.
    assert ir.stmts[0].text == "n > 0"
    assert ir.successors == {**{i: (i + 1,) for i in range(9)}, 9: (0,)}
    assert ir.symbol_table.keys() == {"va", "vb", "vc"}
    vadd = ir.stmts[4]
    assert ir.names_in(vadd.uses) == {"va", "vb"}
    assert ir.names_in(vadd.defs) == {"vc"}


def test_empty_body_has_no_statements():
    ir = parse_function("void nothing(void) { }", "void nothing(void)")
    assert ir.stmts == []
    assert ir.successors == {}


def test_goto_rejected_with_line():
    src = "void f(void) {\n    int x = 0;\n    goto out;\nout:\n    return;\n}"
    with pytest.raises(ParseError) as exc_info:
        parse_function(src, "void f(void)")
    assert "goto" in str(exc_info.value)
    assert "line 3" in str(exc_info.value)


def test_switch_rejected():
    src = "void f(int x) { switch (x) { default: break; } }"
    with pytest.raises(ParseError, match="switch"):
        parse_function(src, "void f(int x)")


def test_unbalanced_braces_rejected():
    with pytest.raises(ParseError, match=r"^unbalanced braces \(line 1\)$"):
        parse_function("void f(void) { if (1) {", "void f(void)")


@pytest.mark.parametrize("shape", DEEP_NESTING)
def test_nesting_too_deep_is_a_parse_error(shape):
    src = f"void f(int n) {{ {DEEP_NESTING[shape](600)} }}"
    with pytest.raises(ParseError, match=r"^nesting too deep$"):
        parse_function(src, "f")


def test_300_deep_blocks_still_parse():
    ir = parse_function(f"void f(int n) {{ {DEEP_NESTING['blocks'](300)} }}", "f")
    assert [s.text for s in ir.stmts] == ["n = 1"]


@pytest.mark.parametrize("shape", DEEP_NESTING)
def test_300_deep_nests_parse_as_the_reference_does(shape):
    source = f"void f(int n) {{ {DEEP_NESTING[shape](300)} }}"
    assert isinstance(_assert_same_as_reference(source, "f"), FunctionIr)


def test_straight_line_is_a_chain():
    src = """
    #include <riscv_vector.h>
    void f(const int32_t *p, int32_t *q, size_t vl) {
        vint32m1_t a = __riscv_vle32_v_i32m1(p, vl);
        vint32m1_t b = __riscv_vadd_vv_i32m1(a, a, vl);
        __riscv_vse32_v_i32m1(q, b, vl);
        q += vl;
    }
    """
    ir = parse_function(src, "f")
    assert [s.stmt_id for s in ir.stmts] == [0, 1, 2, 3]
    assert ir.successors == {0: (1,), 1: (2,), 2: (3,), 3: ()}


def test_if_else_with_join_makes_diamond():
    src = """
    void f(int c, size_t vl, const int32_t *p, int32_t *q) {
        vint32m1_t x = __riscv_vle32_v_i32m1(p, vl);
        if (c) {
            x = __riscv_vadd_vv_i32m1(x, x, vl);
        } else {
            x = __riscv_vsub_vv_i32m1(x, x, vl);
        }
        __riscv_vse32_v_i32m1(q, x, vl);
    }
    """
    ir = parse_function(src, "f")
    assert [s.text for s in ir.stmts][1:] == [
        "c", "x = __riscv_vadd_vv_i32m1(x, x, vl)", "x = __riscv_vsub_vv_i32m1(x, x, vl)",
        "__riscv_vse32_v_i32m1(q, x, vl)",
    ]
    # the condition forks to then and else, which join at the final store
    assert ir.successors == {0: (1,), 1: (2, 3), 2: (4,), 3: (4,), 4: ()}


def test_while_loop_back_edge_and_two_way_header():
    src = """
    void f(size_t n, const int32_t *p, int32_t *q) {
        while (n > 0) {
            size_t vl = __riscv_vsetvl_e32m1(n);
            vint32m1_t v = __riscv_vle32_v_i32m1(p, vl);
            __riscv_vse32_v_i32m1(q, v, vl);
            n -= vl;
        }
        n = 0;
    }
    """
    ir = parse_function(src, "f")
    assert [s.text for s in ir.stmts][::4] == ["n > 0", "n -= vl"]
    # the header goes into the body or past the loop; the body ends in the back edge
    assert ir.successors == {0: (1, 5), 1: (2,), 2: (3,), 3: (4,), 4: (0,), 5: ()}


def test_do_while_runs_body_first():
    src = """
    void f(size_t n) {
        do {
            n -= 1;
        } while (n > 0);
        n = 0;
    }
    """
    ir = parse_function(src, "f")
    assert [s.text for s in ir.stmts] == ["n -= 1", "n > 0", "n = 0"]
    # straight into the body, no pre-test; the condition branches back or out
    assert ir.successors == {0: (1,), 1: (0, 2), 2: ()}


def test_for_loop_step_runs_after_body():
    src = """
    void f(const int32_t *p, int32_t *q, size_t n) {
        for (size_t i = 0; i < n; i += 4) {
            q[i] = p[i];
        }
        n = 0;
    }
    """
    ir = parse_function(src, "f")
    texts = [s.text for s in ir.stmts]
    assert texts == ["size_t i = 0", "i < n", "q[i] = p[i]", "i += 4", "n = 0"]
    # init, then the header: the body and the step lead back to it
    assert ir.successors == {0: (1,), 1: (2, 4), 2: (3,), 3: (1,), 4: ()}


def test_break_and_continue_edges():
    src = """
    void f(size_t n) {
        while (1) {
            if (n == 0) {
                break;
            }
            n -= 1;
            if (n == 7) {
                continue;
            }
            n -= 1;
        }
        n += 1;
    }
    """
    ir = parse_function(src, "f")
    assert [s.text for s in ir.stmts] == ["1", "n == 0", "n -= 1", "n == 7", "n -= 1", "n += 1"]
    # the break leaves the loop, the continue goes back to the header
    assert ir.successors == {
        0: (1, 5), 1: (2, 5), 2: (3,), 3: (0, 4), 4: (0,), 5: (),
    }


@pytest.mark.parametrize("body, texts, successors", [
    # ``for (;;) { }`` is a cycle with no statement, left by its exit edge;
    # the empty bodies of the other two loops lead back to their tests
    pytest.param("n = 1; for (;;) { } n = 2; while (n) { } do { } while (0); n = 3;",
                 ["n = 1", "n = 2", "n", "0", "n = 3"],
                 {0: (1,), 1: (2,), 2: (2, 3), 3: (3, 4), 4: ()}, id="empty_loops"),
    # the inner loop's head leads to its body and, past both heads, to n = 3
    pytest.param("n = 1; for (;;) { for (;;) { n = 2; } } n = 3;",
                 ["n = 1", "n = 2", "n = 3"], {0: (1, 2), 1: (1, 2), 2: ()},
                 id="nested_endless_loops"),
    # the step is reached only by the continue, and leads back through the head
    pytest.param("for (; ; n -= 1) { continue; } n = 2;",
                 ["n -= 1", "n = 2"], {0: (0, 1), 1: ()}, id="step_after_continue"),
    # n = 2 is reached through the head's exit edge alone
    pytest.param("for (;;) { return; } n = 2;",
                 ["return", "n = 2"], {0: (), 1: ()}, id="return_in_endless_loop"),
    pytest.param("do { for (;;) ; } while (n); n = 1;",
                 ["n", "n = 1"], {0: (0, 1), 1: ()}, id="endless_loop_in_do"),
    # the condition is unreachable, so it is dropped
    pytest.param("do { break; } while (n); n = 1;",
                 ["n = 1"], {0: ()}, id="break_in_do"),
    pytest.param("if (n) ; else ; n = 1;",
                 ["n", "n = 1"], {0: (1,), 1: ()}, id="empty_if_else"),
])
def test_successors_pass_through_cycles_of_empty_blocks(body, texts, successors):
    ir = parse_function(f"void f(int n) {{ {body} }}", "f")
    assert [s.text for s in ir.stmts] == texts
    assert ir.successors == successors


def test_unreachable_code_after_return_is_dropped():
    src = """
    void f(const int32_t *p, size_t vl) {
        vint32m1_t a = __riscv_vle32_v_i32m1(p, vl);
        return;
        a = __riscv_vadd_vv_i32m1(a, a, vl);
    }
    """
    ir = parse_function(src, "f")
    assert [s.text for s in ir.stmts] == [
        "vint32m1_t a = __riscv_vle32_v_i32m1(p, vl)",
        "return",
    ]
    assert [s.stmt_id for s in ir.stmts] == [0, 1]


def test_vector_param_visible_at_entry():
    src = """
    vint32m2_t scale(vint32m2_t x, size_t vl) {
        vint32m2_t y = __riscv_vadd_vv_i32m2(x, x, vl);
        return y;
    }
    """
    ir = parse_function(src, "vint32m2_t scale(vint32m2_t x, size_t vl)")
    assert "x" in ir.symbol_table
    assert ir.names_in(ir.stmts[0].uses) == {"x"}
    assert ir.names_in(ir.stmts[1].uses) == {"y"}


def test_statement_may_start_with_a_parenthesis():
    ir = parse_function("void f(int *p, int n) { (void)n; (*p) = 1; }", "f")
    assert [(s.kind, s.text) for s in ir.stmts] == [
        ("scalar_other", "(void) n"), ("assign", "(*p) = 1"),
    ]


def test_array_of_vectors_parameter_is_not_a_vector_value():
    ir = parse_function("void f(vint32m1_t a[], vint32m1_t b) { }", "f")
    assert ir.symbol_table.keys() == {"b"}


def test_parameter_redeclared_with_another_vector_type_is_rejected():
    message = "'a' redeclared with a different vector type (line 2)"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_function("void f(vint32m1_t a,\n       vint32m2_t a) { }", "f")


def test_scalar_parameter_is_not_a_declaration_of_a_later_vector():
    src = """void f(const int32_t *b, size_t vl) {
        g(b);
        {
            vint32m1_t b = __riscv_vmv_v_x_i32m1(0, vl);
        }
    }"""
    ir = parse_function(src, "f")
    assert [(s.text, ir.names_in(s.uses), ir.names_in(s.defs)) for s in ir.stmts] == [
        ("g(b)", set(), set()),
        ("vint32m1_t b = __riscv_vmv_v_x_i32m1(0, vl)", set(), {"b"}),
    ]
    assert {n: t.name() for n, t in ir.symbol_table.items()} == {"b": "vint32m1_t"}


# --- block scopes ----------------------------------------------------------

# Each row: a body of ``void f(const int32_t *p, int32_t *q, size_t vl)`` (or a
# whole source), then what it must give: the symbol table, each statement's
# USE set, the peak pressure and the names live at the hot statement; or the
# error it must raise.
_SCOPE_RULES = {
    "m8_shadow_keeps_both_live": ("""
        vint32m8_t x = __riscv_vle32_v_i32m8(p, vl);
        {
            vint32m8_t x = __riscv_vle32_v_i32m8(p, vl);
            __riscv_vse32_v_i32m8(q, x, vl);
        }
        __riscv_vse32_v_i32m8(q, x, vl);""",
        {"symbols": {"x": "vint32m8_t", "x@2": "vint32m8_t"},
         "uses": [set(), set(), {"x@2"}, {"x"}], "pressure": 16, "live": {"x", "x@2"}}),
    "shadow_of_a_vector_a_scalar_hides_keeps_both_live": ("""
        vint32m8_t x = __riscv_vle32_v_i32m8(p, vl);
        { int x = 0; { vint32m8_t x = __riscv_vle32_v_i32m8(p, vl); g(x); } }
        __riscv_vse32_v_i32m8(q, x, vl);""",
        {"symbols": {"x": "vint32m8_t", "x@2": "vint32m8_t"},
         "uses": [set(), set(), set(), {"x@2"}, {"x"}], "pressure": 16, "live": {"x", "x@2"}}),
    "vector_hidden_two_scopes_up_is_renamed": ("""
        vint32m1_t x = __riscv_vle32_v_i32m1(p, vl);
        { int x = 0; { g(x); { vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); g(x); } } }
        __riscv_vse32_v_i32m1(q, x, vl);""",
        {"symbols": {"x": "vint32m1_t", "x@2": "vint32m1_t"},
         "uses": [set(), set(), set(), set(), {"x@2"}, {"x"}], "pressure": 2,
         "live": {"x", "x@2"}}),
    "sibling_blocks_with_different_types": ("""
        { vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); __riscv_vse32_v_i32m1(q, x, vl); }
        { vint32m2_t x = __riscv_vle32_v_i32m2(p, vl); __riscv_vse32_v_i32m2(q, x, vl); }""",
        {"symbols": {"x": "vint32m1_t", "x@2": "vint32m2_t"},
         "uses": [set(), {"x"}, set(), {"x@2"}], "pressure": 2}),
    "sibling_blocks_with_one_type_share_a_name": ("""
        { vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); __riscv_vse32_v_i32m1(q, x, vl); }
        { vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); __riscv_vse32_v_i32m1(q, x, vl); }""",
        {"symbols": {"x": "vint32m1_t"}, "uses": [set(), {"x"}, set(), {"x"}], "pressure": 1}),
    "scalar_hides_a_vector": ("""
        vint32m2_t v = __riscv_vle32_v_i32m2(p, vl);
        { int v = 3; g(v); }
        __riscv_vse32_v_i32m2(q, v, vl);""",
        {"symbols": {"v": "vint32m2_t"}, "uses": [set(), set(), set(), {"v"}],
         "pressure": 2, "live": {"v"}}),
    "for_init_shadows_an_outer_vector": ("""
        vint32m2_t x = __riscv_vle32_v_i32m2(p, vl);
        for (vint32m1_t x = __riscv_vle32_v_i32m1(p, vl);;) {
            __riscv_vse32_v_i32m1(q, x, vl);
        }
        __riscv_vse32_v_i32m2(q, x, vl);""",
        {"symbols": {"x": "vint32m2_t", "x@2": "vint32m1_t"},
         "uses": [set(), set(), {"x@2"}, {"x"}], "pressure": 3, "live": {"x", "x@2"}}),
    "for_init_ends_with_the_loop": ("""
        for (vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); vl; vl--) { }
        g(x);""",
        {"symbols": {"x": "vint32m1_t"}, "uses": [set(), set(), set(), set()]}),
    "declaration_as_a_lone_sub_statement_ends_with_it": ("""
        if (vl) vint32m1_t x = __riscv_vle32_v_i32m1(p, vl);
        g(x);""",
        {"symbols": {"x": "vint32m1_t"}, "uses": [set(), set(), set()], "pressure": 0}),
    "lone_loop_body_declarations_end_with_each_pass": ("""
        vint32m2_t x = __riscv_vle32_v_i32m2(p, vl);
        while (vl) vint32m1_t x = __riscv_vle32_v_i32m1(p, vl);
        do vint32m8_t x = __riscv_vle32_v_i32m8(p, vl); while (vl);
        __riscv_vse32_v_i32m2(q, x, vl);""",
        {"symbols": {"x": "vint32m2_t", "x@2": "vint32m1_t", "x@3": "vint32m8_t"},
         "uses": [set(), set(), set(), set(), set(), {"x"}], "pressure": 2, "live": {"x"}}),
    "read_after_the_block_closes_is_no_use": ("""
        { vint32m1_t v = __riscv_vle32_v_i32m1(p, vl); }
        g(v);""",
        {"symbols": {"v": "vint32m1_t"}, "uses": [set(), set()], "pressure": 0}),
    "same_scope_same_type_is_one_value": ("""
        vint32m1_t a;
        vint32m1_t a = __riscv_vle32_v_i32m1(p, vl);
        __riscv_vse32_v_i32m1(q, a, vl);""",
        {"symbols": {"a": "vint32m1_t"}, "uses": [set(), set(), {"a"}]}),
    "same_scope_other_type_raises": ("""
        vint32m1_t a = __riscv_vle32_v_i32m1(p, vl);
        { vint32m2_t a; }
        vint32m2_t a = __riscv_vle32_v_i32m2(p, vl);""",
        {"error": (ParseError, "'a' redeclared with a different vector type (line 4)")}),
    "parameter_redeclared_in_the_body_raises": (
        "void f(vint32m1_t a, size_t vl) {\n    vint32m2_t a;\n}",
        {"error": (ParseError, "'a' redeclared with a different vector type (line 2)")}),
    "parameter_shadowed_in_a_nested_block": (
        "void f(vint32m1_t a, size_t vl) {\n    { vint32m2_t a; }\n}",
        {"symbols": {"a": "vint32m1_t", "a@2": "vint32m2_t"}, "uses": [set()]}),
    "use_before_a_later_declaration_raises": ("""
        { g(v); }
        { vint32m1_t v = __riscv_vle32_v_i32m1(p, vl); }""",
        {"error": (ParseError, "vector value 'v' referenced before its declaration (line 2)")}),
}


@pytest.mark.parametrize("body, want", _SCOPE_RULES.values(), ids=_SCOPE_RULES)
def test_block_scope_rules(body, want):
    source = body if body.startswith("void") else (
        f"void f(const int32_t *p, int32_t *q, size_t vl) {{{body}\n}}")
    if "error" in want:
        error, message = want["error"]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_function(source, "f")
        return
    ir = parse_function(source, "f")
    assert {n: t.name() for n, t in ir.symbol_table.items()} == want["symbols"]
    assert [ir.names_in(s.uses) for s in ir.stmts] == want["uses"]
    report = analyze_source(source, "f")
    if "pressure" in want:
        assert report.pressure == want["pressure"]
    if "live" in want:
        assert {name for name, _ in report.live_at_hot} == want["live"]


_SCOPE_TYPES = {"m1": "vint32m1_t", "m2": "vint32m2_t", "m8": "vint32m8_t"}


@st.composite
def _scoped_bodies(draw):
    """A body of nested blocks, ``if``s and ``for`` loops that declare and read
    ``x`` and ``y``, rendered twice: with the plain names, and with one
    spelling per declaration, each reference spelled as its binding.

    The generator keeps its own scope map, a list of dicts from name to
    spelling, innermost last; every reference names a visible binding.
    """
    spellings = iter(range(1, 10_000))
    plain: list[str] = []
    unique: list[str] = []

    def emit(text, spelled):
        plain.append(text)
        unique.append(spelled)

    def reads(scopes, exclude=""):
        visible = {n: sp for scope in scopes for n, sp in scope.items() if n != exclude}
        names = draw(st.lists(st.sampled_from(sorted(visible)), max_size=2)) if visible else []
        return ", ".join(["p", *names]), ", ".join(["p", *(visible[n] for n in names)])

    def declare(scope, name):
        """A declaration of ``name``: (type, plain name, unique spelling)."""
        kind = draw(st.sampled_from(["int", *_SCOPE_TYPES]))
        scope[name] = f"{name}_{next(spellings)}"
        return _SCOPE_TYPES.get(kind, "int"), name, scope[name]

    def block(scopes, depth):
        scope = scopes[-1]
        for _ in range(draw(st.integers(0, 4))):
            choices = ["decl", "read", "assign"] + (["block", "if", "for"] if depth < 3 else [])
            choice = draw(st.sampled_from(choices))
            free = [n for n in "xy" if n not in scope]
            visible = sorted({n for s in scopes for n in s})
            if choice == "decl" and free:
                name = draw(st.sampled_from(free))
                args = reads(scopes, exclude=name)
                typ, name, spelled = declare(scope, name)
                emit(f"{typ} {name} = h({args[0]});", f"{typ} {spelled} = h({args[1]});")
            elif choice == "read":
                args = reads(scopes)
                emit(f"g({args[0]});", f"g({args[1]});")
            elif choice == "assign" and visible:
                name = draw(st.sampled_from(visible))
                spelled = next(s[name] for s in reversed(scopes) if name in s)
                args = reads(scopes)
                emit(f"{name} = h({args[0]});", f"{spelled} = h({args[1]});")
            elif choice in ("block", "if"):
                head = "{" if choice == "block" else "if (vl) {"
                emit(head, head)
                block(scopes + [{}], depth + 1)
                emit("}", "}")
            elif choice == "for":
                loop_scope: dict[str, str] = {}
                name = draw(st.sampled_from("xy"))
                args = reads(scopes, exclude=name)
                typ, name, spelled = declare(loop_scope, name)
                emit(f"for ({typ} {name} = h({args[0]}); vl; vl--) {{",
                     f"for ({typ} {spelled} = h({args[1]}); vl; vl--) {{")
                block(scopes + [loop_scope, {}], depth + 1)
                emit("}", "}")

    block([{}], 0)
    return "\n".join(plain), "\n".join(unique)


@settings(max_examples=150, deadline=None)
@given(_scoped_bodies())
def test_scoped_names_analyze_as_uniquely_spelled_ones(bodies):
    reports, sizes = [], []
    for body in bodies:
        source = f"void f(const int32_t *p, int32_t *q, size_t vl) {{\n{body}\n}}"
        reports.append(analyze_source(source, "f"))
        sizes.append([(s.uses.bit_count(), s.defs.bit_count())
                      for s in parse_function(source, "f").stmts])
    plain, unique = reports
    assert plain.pressure == unique.pressure
    assert plain.per_stmt_pressure == unique.per_stmt_pressure
    assert plain.spills_predicted == unique.spills_predicted
    assert sizes[0] == sizes[1]


def test_use_before_declaration_is_an_error():
    src = """
    void f(size_t vl) {
        vint32m1_t b = __riscv_vadd_vv_i32m1(a, a, vl);
        vint32m1_t a = __riscv_vmv_v_x_i32m1(0, vl);
    }
    """
    with pytest.raises(ParseError, match="'a'"):
        parse_function(src, "f")


def test_redeclaration_with_different_type_rejected():
    src = """
    void f(size_t vl) {
        vint32m1_t a = __riscv_vmv_v_x_i32m1(0, vl);
        vint32m2_t a = __riscv_vmv_v_x_i32m2(0, vl);
    }
    """
    with pytest.raises(ParseError, match="redeclared"):
        parse_function(src, "f")


def test_function_not_found():
    with pytest.raises(ParseError, match="not found"):
        parse_function("void g(void) {}", "void f(void)")


def test_prototype_without_a_body_is_not_found():
    with pytest.raises(ParseError, match="function 'f' not found"):
        parse_function("void f(void);\nvoid g(void) { }", "f")


def test_unbalanced_parameter_list_names_its_line():
    with pytest.raises(ParseError, match=r"unbalanced parentheses \(line 2\)"):
        parse_function("int x;\nvoid f(int a {\n}", "f")


@pytest.mark.parametrize("source, signature, error, message", [
    ("void f(void) {\n    break;\n}", "f", ParseError, "break outside a loop (line 2)"),
    ("void f(void) { break; goto x; }", "f", ParseError, "break outside a loop (line 1)"),
    ("void f(int n) {\n    if (n)\n        continue;\n}", "f", ParseError,
     "continue outside a loop (line 3)"),
    ("void f(int x) {\n    x = 1;\n    case 1: x = 2;\n}", "f", ParseError,
     "unsupported construct: case label (line 3)"),
    ("void f(int x) {\n\n    default: x = 2;\n}", "f", ParseError,
     "unsupported construct: default label (line 3)"),
    ("void f(int x) {\n    if x { }\n}", "f", ParseError, "expected '(', found 'x' (line 2)"),
    ("void f(int x) {\n    break x;\n}", "f", ParseError, "expected ';', found 'x' (line 2)"),
    ("void f(int x) {\n    do x++; until (x);\n}", "f", ParseError,
     "expected 'while', found 'until' (line 2)"),
    ("void f(int x) {\n    x = (1;\n}", "f", ParseError, "mismatched '}' (line 3)"),
    ("void f(int x) {\n    x = { 1 );\n}", "f", ParseError, "mismatched ')' (line 2)"),
    ("void f(int x, int *a) { x = (1]; a[0) = x; }", "f", ParseError,
     "mismatched ']' (line 1)"),
    ("void f(void) { }\n}", "f", ParseError, "mismatched '}' (line 2)"),
    ("void f(int n) {\n    if (n) {\n        n = 1;\n", "f", ParseError,
     "unbalanced braces (line 2)"),
    ("void f(int *a) {\n    a[0] = 1;\n}\nint t[4", "f", ParseError,
     "unbalanced brackets (line 4)"),
    ("void f(int x) {\n    x = 1\n}", "f", ParseError, "expected ';' before '}' (line 3)"),
    # A missing body whose '}' is the last token of the text.
    ("void f(int c) {\n    if (c)\n}", "f", ParseError, "expected ';' before '}' (line 3)"),
    ("void f(int c) {\n    if (c) c = 1; else\n}", "f", ParseError,
     "expected ';' before '}' (line 3)"),
    ("void f(void) {\n    for (;;)\n}", "f", ParseError, "expected ';' before '}' (line 3)"),
    ("void f(void) {\n    do\n}", "f", ParseError, "expected ';' before '}' (line 3)"),
    ("void f(int x) {\n    L: x = 1;\n}", "f", ParseError,
     "unsupported construct: label 'L' (line 2)"),
    ("void f(void) { }", "int f", ParseError, "cannot read a function name from 'int f'"),
    ("void f(void) { }", "", ParseError, "cannot read a function name from ''"),
    ("void f(size_t vl) {\n    vint32m1_t a;\n    a = __riscv_vadd_vv_i32m1(b, a, vl);\n"
     "    vint32m1_t b;\n}", "f", ParseError,
     "vector value 'b' referenced before its declaration (line 3)"),
])
def test_parse_function_diagnostics(source, signature, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_function(source, signature)


@pytest.mark.parametrize("signature", ["not a signature", "just_a_name", "int f(", "f(void)"])
def test_validate_signature_names_the_rejected_text(signature):
    message = f"not a function declarator: {signature!r}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        validate_signature(signature)


def test_prototype_is_skipped():
    src = """
    void f(void);
    void f(void) {
        int x = 1;
    }
    """
    ir = parse_function(src, "void f(void)")
    assert len(ir.stmts) == 1


def test_cfg_invariants_hold_on_bundled_corpus(bundled_cases):
    for case in bundled_cases.values():
        ir = parse_function(case.native_text, case.function_signature)
        ids = [s.stmt_id for s in ir.stmts]
        assert ids == list(range(len(ids)))  # dense, in layout order
        assert sorted(ir.successors) == ids
        for succ in ir.successors.values():
            assert list(succ) == sorted(set(succ))
            assert all(0 <= t < len(ids) for t in succ)
        reachable = set()
        stack = [0]
        while stack:
            sid = stack.pop()
            if sid not in reachable:
                reachable.add(sid)
                stack.extend(ir.successors[sid])
        assert reachable == set(ids)
        for s in ir.stmts:
            assert (s.uses | s.defs) >> len(ir.symbol_table) == 0  # no bit past the table


def test_initializer_braces_inside_statements():
    src = """
    void f(size_t vl) {
        int arr[2] = {1, 2};
        vint32m1_t v = __riscv_vle32_v_i32m1((const int32_t *)arr, vl);
        __riscv_vse32_v_i32m1((int32_t *)arr, v, vl);
    }
    """
    ir = parse_function(src, "f")
    assert [s.kind for s in ir.stmts] == ["decl", "decl", "call"]
    assert ir.names_in(ir.stmts[2].uses) == {"v"}


# --- round trips -----------------------------------------------------------

def _structure_fingerprint(ir):
    return (
        [(s.kind, ir.names_in(s.uses), ir.names_in(s.defs)) for s in ir.stmts],
        ir.successors,
    )


def _front_end(parse, source, signature):
    """What a front end makes of ``source``: the IR, or the error's type and text."""
    try:
        return parse(source, signature)
    except ParseError as exc:
        return type(exc).__name__, str(exc)


def _assert_same_as_reference(source, signature):
    """The one-pass IR equals the reference's (statements, use/def sets,
    successors), or both raise the same error; returns the IR.

    One difference is by design: a ``break`` or ``continue`` outside a loop
    is reported where it stands, while the reference reports first any other
    parse error later in the body.
    """
    got = _front_end(parse_function, source, signature)
    want = _front_end(lambda src, sig: reference_parse(src, sig)[0], source, signature)
    if got != want:
        assert isinstance(got, tuple) and isinstance(want, tuple), (got, want)
        jump = re.fullmatch(r"(?:break|continue) outside a loop \(line (\d+)\)", got[1])
        later = re.search(r"\(line (\d+)\)$", want[1])
        assert jump and later, (got, want)
        assert int(later[1]) >= int(jump[1]), (got, want)
    return got


def _assert_round_trip(source, signature):
    """Same IR as the reference, and the printed reference tree parses back to it."""
    _assert_same_as_reference(source, signature)
    ir = parse_function(source, signature)
    ir2 = parse_function(print_function(source, signature), signature)
    assert _structure_fingerprint(ir) == _structure_fingerprint(ir2)


def test_pretty_print_round_trip_on_bundled_corpus(bundled_cases):
    for case in bundled_cases.values():
        _assert_round_trip(case.native_text, case.function_signature)


@pytest.mark.parametrize("name", ["constructs", "spills"])
def test_pretty_print_round_trip_on_analyze_goldens(name):
    _assert_round_trip((GOLDEN_ANALYZE / f"{name}.c").read_text(), name)


def test_pretty_print_round_trip_on_replay_fences(bundled_cases):
    replay = json.loads((GOLDEN / "replay.json").read_text())
    rejected = []
    parsed = 0
    for case_id, replies in replay.items():
        signature = bundled_cases[case_id].function_signature
        for reply in replies:
            for block in re.findall(r"```[^\n]*\n(.*?)```", reply, re.DOTALL):
                try:
                    _assert_round_trip(block, signature)
                except ParseError as exc:
                    rejected.append((case_id, str(exc)))
                else:
                    parsed += 1
    assert parsed == 24
    assert rejected == [("deinterleave_rgb", "unsupported construct: goto (line 3)")]


@pytest.mark.parametrize("body", [
    "if (c) vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); g(x);",
    "if (c) c = 1; else vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); g(x);",
    "while (c) vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); g(x);",
    "for (;;) vint32m1_t x = __riscv_vle32_v_i32m1(p, vl); g(x);",
])
def test_pretty_print_round_trip_on_lone_sub_statement_declarations(body):
    _assert_round_trip(f"void f(const int32_t *p, size_t vl, int c) {{ {body} }}", "f")


@pytest.mark.parametrize("loop", [
    "for (; c; ) { c -= 1; }",
    "for (;;) { if (c) { break; } c += 1; }",
    "while (c) c--;",
])
def test_pretty_print_round_trip_on_bare_loops(loop):
    _assert_round_trip(f"void f(int c) {{ {loop} c = 0; }}", "f")


@pytest.mark.parametrize("loop, head", [
    ("for (; c; ) c -= 1;", "while (c) {"),
    ("while (c) c--;", "while (c) {"),
    ("for (;;) break;", "for (; ; ) {"),
    ("for (c = 0; c; ) break;", "for (c = 0; c; ) {"),
])
def test_printed_loop_head(loop, head):
    printed = print_function(f"void f(int c) {{ {loop} }}", "f")
    assert printed.splitlines()[1] == f"    {head}"


def test_pretty_print_round_trip_with_all_loop_forms():
    src = """
    void f(size_t n, int c) {
        size_t i = 0;
        do {
            n -= 1;
        } while (n > 3);
        for (i = 0; i < n; i += 1) {
            if (c) {
                c -= 1;
            } else {
                c += 1;
            }
        }
        while (c > 0) {
            c -= 2;
        }
    }
    """
    _assert_round_trip(src, "f")


# Statement fragments for generated bodies in a function whose parameters
# declare ``a`` and ``c``: vector declarations (one with a conflicting type,
# one of a name only the body declares), assignments and calls, scalar
# statements and jumps.
_SIMPLE_STATEMENTS = (
    "vint32m1_t a = __riscv_vle32_v_i32m1(p, n);",
    "vint32m1_t b;",
    "vint32m2_t c = __riscv_vmv_v_x_i32m2(0, n);",
    "vint32m2_t a;",
    "a = __riscv_vadd_vv_i32m1(a, b, n);",
    "b = a;",
    "c = __riscv_vadd_vv_i32m2(c, c, n);",
    "__riscv_vse32_v_i32m1(p, a, n);",
    "n -= 1;",
    "int k = n;",
    "break;",
    "continue;",
    "return;",
    "return n;",
    ";",
)
_CONDITIONS = st.sampled_from(["n", "n > 1", "a"])


def _compound(inner):
    return st.one_of(
        st.lists(inner, max_size=4).map(lambda items: "{ " + " ".join(items) + " }"),
        st.tuples(_CONDITIONS, inner).map(lambda t: f"if ({t[0]}) {t[1]}"),
        st.tuples(_CONDITIONS, inner, inner).map(lambda t: f"if ({t[0]}) {t[1]} else {t[2]}"),
        st.tuples(_CONDITIONS, inner).map(lambda t: f"while ({t[0]}) {t[1]}"),
        st.tuples(inner, _CONDITIONS).map(lambda t: f"do {t[0]} while ({t[1]});"),
        st.tuples(
            st.sampled_from(["", "int i = 0", "b = a"]),
            st.sampled_from(["", "i < n"]),
            st.sampled_from(["", "i++", "c = c"]),
            inner,
        ).map(lambda t: f"for ({t[0]}; {t[1]}; {t[2]}) {t[3]}"),
    )


_BODIES = st.lists(
    st.recursive(st.sampled_from(_SIMPLE_STATEMENTS), _compound, max_leaves=12),
    min_size=1, max_size=6,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(_BODIES)
def test_one_pass_ir_equals_the_reference_on_generated_bodies(body):
    source = f"void f(int32_t *p, size_t n, vint32m1_t a, vint32m2_t c) {{ {body} }}"
    _assert_same_as_reference(source, "f")
