from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecport.agents import (
    Diagnostics,
    build_optimize_prompt,
    build_repair_prompt,
    build_translate_prompt,
    extract_code,
    truncate_middle,
)
from vecport.errors import NoCodeError
from vecport.liveness import analyze_source


def test_translate_prompt_shape(vec_add_case):
    bundle = build_translate_prompt(vec_add_case)
    assert bundle.purpose == "translate"
    assert [m.role for m in bundle.messages] == ["system", "user"]
    assert vec_add_case.function_signature in bundle.messages[0].content
    assert "vaddq_s32" in bundle.messages[1].content  # full Neon source embedded
    assert "__riscv_" in bundle.messages[0].content
    assert "128" in bundle.messages[0].content and "256" in bundle.messages[0].content


def test_translate_prompt_is_deterministic(vec_add_case):
    a = build_translate_prompt(vec_add_case)
    b = build_translate_prompt(vec_add_case)
    assert a == b
    assert a.context_digest == b.context_digest


def test_repair_prompt_embeds_compiler_output_verbatim(vec_add_case):
    diag = Diagnostics(
        "compile",
        "candidate.c:7:5: error: implicit declaration of __riscv_vadd_vv_i32m2",
    )
    bundle = build_repair_prompt(vec_add_case, "void stub(void) {}", diag)
    assert bundle.purpose == "repair_compile"
    assert "implicit declaration of __riscv_vadd_vv_i32m2" in bundle.messages[1].content
    assert "void stub(void) {}" in bundle.messages[1].content


def test_repair_prompt_for_test_failure_names_the_vlen(vec_add_case):
    report = (
        "functional test results:\n"
        "  VLEN=128: PASS\n"
        "  VLEN=256: FAIL (exit code 1)\n"
        "--- output tail (VLEN=256) ---\n"
        "mismatch at n=5 i=4: got 0 want 9\n"
    )
    bundle = build_repair_prompt(vec_add_case, "void stub(void) {}", Diagnostics("test", report))
    assert bundle.purpose == "repair_test"
    assert "VLEN=256: FAIL" in bundle.messages[1].content


def test_optimize_prompt_headroom_suggests_bigger_lmul(vec_add_case):
    pressure = analyze_source(vec_add_case.native_text, vec_add_case.function_signature)
    assert pressure.pressure == 6
    bundle = build_optimize_prompt(vec_add_case, vec_add_case.native_text, pressure)
    text = bundle.messages[1].content
    assert bundle.purpose == "optimize"
    assert "headroom" in text
    assert "LMUL" in text
    assert "6 of 32" in text


def test_optimize_prompt_spill_pressure_asks_to_shrink():
    # 17 simultaneously live m2 values in a synthetic straight line
    decls = "\n".join(
        f"    vint32m2_t t{i} = __riscv_vmv_v_x_i32m2({i}, vl);" for i in range(17)
    )
    uses = ", ".join(f"t{i}" for i in range(17))
    src = (
        "void hog(size_t vl, int32_t *out) {\n"
        + decls
        + f"\n    sink17({uses}, vl, out);\n"
        + "}\n"
    )
    pressure = analyze_source(src, "hog")
    assert pressure.pressure == 34 and pressure.spills_predicted

    bundle = build_optimize_prompt(_fake_case(), src, pressure)
    text = bundle.messages[1].content
    assert "exceeds" in text
    assert "live" in text


def _fake_case():
    from vecport.corpus import CaseManifest, ValidatedCase
    from pathlib import Path

    manifest = CaseManifest(
        case_id="fake",
        source_path=Path("fake.c"),
        functional_test_path=Path("t.c"),
        perf_test_path=Path("b.c"),
        native_reference_path=Path("n.c"),
        function_signature="void hog(size_t vl, int32_t *out)",
    )
    return ValidatedCase(
        manifest=manifest,
        source_text="void hog(void) { vaddq_s32; }",
        native_text="",
    )


def test_optimize_prompt_reports_speedup(vec_add_case):
    bundle = build_optimize_prompt(
        vec_add_case, vec_add_case.native_text, None, speedup=Fraction(7, 10)
    )
    assert "0.7" in bundle.messages[1].content
    assert "native" in bundle.messages[1].content


def test_optimize_prompt_without_pressure_says_so(vec_add_case):
    bundle = build_optimize_prompt(vec_add_case, vec_add_case.native_text, None)
    assert "No register pressure data" in bundle.messages[1].content


# --- extraction ---------------------------------------------------------------

def test_extract_single_fence():
    response = "Here you go:\n```c\nint x = 1;\n```\nEnjoy."
    assert extract_code(response) == "int x = 1;"


def test_extract_takes_the_last_fence():
    response = (
        "First sketch:\n```c\nint draft = 0;\n```\n"
        "But the final version is:\n```c\nint final = 1;\n```\n"
    )
    assert extract_code(response) == "int final = 1;"


def test_extract_bare_c_without_fence():
    response = "#include <riscv_vector.h>\nvoid f(void) {}\n"
    assert extract_code(response) == response.strip()


def test_extract_rejects_prose():
    with pytest.raises(NoCodeError):
        extract_code("I am terribly sorry, I cannot produce code today.")


# --- truncation -----------------------------------------------------------------

def test_truncation_keeps_short_text_intact():
    assert truncate_middle("short", 100) == "short"


def test_truncation_marks_omission():
    text = "x" * 1000
    out = truncate_middle(text, 100)
    assert "omitted" in out
    assert len(out) < len(text)


@settings(max_examples=80, deadline=None)
@given(st.text(min_size=1, max_size=5000), st.integers(16, 400))
def test_truncation_never_drops_the_final_quarter(text, budget):
    out = truncate_middle(text, budget)
    tail = text[-((len(text) + 3) // 4):]
    assert out.endswith(tail)
