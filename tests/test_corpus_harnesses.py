"""Bundled harness contracts, checked on the host compiler.

Every functional harness must exit 0 against a correct implementation and
nonzero against a broken one; every benchmark harness must print a bare
nanosecond integer as its last stdout line. Scalar stand-ins (compiled
natively) prove this without any RISC-V toolchain. The RVV native references
themselves run through ``translate`` on the host, built against the scalar
``riscv_vector.h`` shim in ``bench/shim``.
"""

import json
import shlex
import shutil

import pytest
from conftest import SHIM, SHIM_RUNNER

from vecport.cli import main
from vecport.corpus import bundled_corpus_dir
from vecport.executors import CommandExecutor, ToolchainConfig

HOST_GCC = shutil.which("gcc")

pytestmark = pytest.mark.skipif(HOST_GCC is None, reason="host gcc not available")

SCALAR_IMPLS = {
    "vec_add": """\
#include <stddef.h>
#include <stdint.h>
void vec_add_s32(const int32_t *a, const int32_t *b, int32_t *c, size_t n) {
    for (size_t i = 0; i < n; i++) c[i] = a[i] + b[i];
}
""",
    "sat_add_u8": """\
#include <stddef.h>
#include <stdint.h>
void sat_add_u8(const uint8_t *a, const uint8_t *b, uint8_t *dst, size_t n) {
    for (size_t i = 0; i < n; i++) {
        unsigned s = (unsigned)a[i] + (unsigned)b[i];
        dst[i] = (uint8_t)(s > 255u ? 255u : s);
    }
}
""",
    "dot_f32": """\
#include <stddef.h>
float dot_f32(const float *a, const float *b, size_t n) {
    float s = 0.0f;
    for (size_t i = 0; i < n; i++) s += a[i] * b[i];
    return s;
}
""",
    "max_s16": """\
#include <stddef.h>
#include <stdint.h>
int16_t max_s16(const int16_t *src, size_t n) {
    int16_t best = INT16_MIN;
    for (size_t i = 0; i < n; i++) if (src[i] > best) best = src[i];
    return best;
}
""",
    "deinterleave_rgb": """\
#include <stddef.h>
#include <stdint.h>
void deinterleave_rgb_u8(const uint8_t *rgb, uint8_t *r, uint8_t *g, uint8_t *b, size_t n) {
    for (size_t i = 0; i < n; i++) {
        r[i] = rgb[3 * i];
        g[i] = rgb[3 * i + 1];
        b[i] = rgb[3 * i + 2];
    }
}
""",
    "mulh_s16": """\
#include <stddef.h>
#include <stdint.h>
void mulh_s16(const int16_t *a, const int16_t *b, int16_t *dst, size_t n) {
    for (size_t i = 0; i < n; i++)
        dst[i] = (int16_t)(((int32_t)a[i] * (int32_t)b[i]) >> 16);
}
""",
    "upsample2x_u8": """\
#include <stddef.h>
#include <stdint.h>
void upsample2x_u8(const uint8_t *src, uint8_t *dst, size_t n) {
    for (size_t i = 0; i < n; i++) {
        dst[2 * i] = src[i];
        dst[2 * i + 1] = src[i];
    }
}
""",
}

# Off-by-one / wrong-op mutations, one per case, that a harness must catch.
BROKEN_IMPLS = {
    "vec_add": SCALAR_IMPLS["vec_add"].replace("a[i] + b[i]", "a[i] - b[i]"),
    "sat_add_u8": SCALAR_IMPLS["sat_add_u8"].replace("s > 255u ? 255u : s", "s"),
    "dot_f32": SCALAR_IMPLS["dot_f32"].replace("s += a[i] * b[i]", "s += a[i]"),
    "max_s16": SCALAR_IMPLS["max_s16"].replace("src[i] > best", "src[i] < best"),
    "deinterleave_rgb": SCALAR_IMPLS["deinterleave_rgb"].replace(
        "g[i] = rgb[3 * i + 1]", "g[i] = rgb[3 * i + 2]"
    ),
    "mulh_s16": SCALAR_IMPLS["mulh_s16"].replace(">> 16", ">> 15"),
    "upsample2x_u8": SCALAR_IMPLS["upsample2x_u8"].replace(
        "dst[2 * i + 1] = src[i]", "dst[2 * i + 1] = 0"
    ),
}


def host_executor(tmp_path) -> CommandExecutor:
    config = ToolchainConfig(
        cc=HOST_GCC,
        flags="-O2",
        runner=SHIM_RUNNER,
        vlens=(128,),
    )
    return CommandExecutor(config, tmp_path / "work")


@pytest.mark.parametrize("case_id", sorted(SCALAR_IMPLS))
def test_functional_harness_accepts_a_correct_implementation(tmp_path, case_id, bundled_cases):
    case = bundled_cases[case_id]
    ex = host_executor(tmp_path)
    compiled = ex.compile_candidate(SCALAR_IMPLS[case_id], case, "functional")
    assert compiled.success, compiled.diagnostics
    tested = ex.run_functional_tests(compiled.artifact_path)
    assert tested.all_passed, tested.describe()


@pytest.mark.parametrize("case_id", sorted(BROKEN_IMPLS))
def test_functional_harness_rejects_a_broken_implementation(tmp_path, case_id, bundled_cases):
    case = bundled_cases[case_id]
    ex = host_executor(tmp_path)
    compiled = ex.compile_candidate(BROKEN_IMPLS[case_id], case, "functional")
    assert compiled.success, compiled.diagnostics
    tested = ex.run_functional_tests(compiled.artifact_path)
    assert not tested.all_passed


@pytest.mark.parametrize("case_id", sorted(SCALAR_IMPLS))
def test_bench_harness_emits_a_cost_line(tmp_path, case_id, bundled_cases):
    case = bundled_cases[case_id]
    ex = host_executor(tmp_path)
    compiled = ex.compile_candidate(SCALAR_IMPLS[case_id], case, "perf")
    assert compiled.success, compiled.diagnostics
    perf = ex.run_perf(compiled.artifact_path, compiled.artifact_path)
    assert perf.translated_cost_ns > 0
    assert perf.native_cost_ns > 0
    assert perf.speedup > 0


def test_rvv_native_references_pass_translate_on_the_shim(tmp_path, capsys):
    # Each case's only reply is its own native.c. Timings on the shim are
    # noise, so no speedup is bounded.
    corpus = bundled_corpus_dir()
    cases = sorted(p.name for p in corpus.iterdir() if (p / "manifest.txt").is_file())
    assert len(cases) == 7
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(
        {c: [f"```c\n{(corpus / c / 'native.c').read_text()}```"] for c in cases}
    ))
    out = tmp_path / "out"
    assert main([
        "translate", "--replay", str(replay), "--cc", HOST_GCC,
        "--flags", f"-O2 -I {shlex.quote(str(SHIM))}",
        "--runner", SHIM_RUNNER,
        "--vlens", "128,256,512", "--translate-max", "1", "--optimize-max", "1",
        "--parallelism", "2", "--out", str(out),
    ]) == 0
    trace = ["Init", "Translate", "Compile", "FuncTest", "BaselinePerf", "Optimize",
             "SelectBest", "Done"]
    for c in cases:
        outcome = json.loads((out / "outcomes" / f"{c}.json").read_text())
        assert (outcome["passed"], outcome["attempts_used"], outcome["fsm_trace"]) == (
            True, 1, trace), (c, outcome["notes"])
