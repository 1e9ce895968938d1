"""RVV intrinsic C candidates for the seven bundled cases, by unroll and LMUL.

``kernel(case, unroll, lmul)`` writes a complete candidate file. With
``unroll == 1`` it is the strip-mined loop of the bundled ``native.c``; with
``unroll == U`` a main loop first loads U independent streams of ``vlmax``
elements each, then computes, then stores, and the strip-mined loop handles
the rest. Loading every stream before using any keeps U values per input
live at once, so register pressure grows with ``U * lmul`` and crosses the
32-register budget as candidates grow. The code is correct RVV: the host
workload compiles it against the scalar shim and tests it at several VLENs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Lines for one stream: (k, lmul, offset expression, vl expression) -> lines.
StreamFn = Callable[[str, int, str, str], list[str]]


@dataclass(frozen=True)
class KernelShape:
    signature: str
    sew: int
    lmuls: tuple[int, ...]          # LMULs the candidate may use
    native_lmul: int
    pointers: tuple[tuple[str, int], ...]  # (name, elements advanced per element)
    loads: StreamFn
    ops: StreamFn
    stores: StreamFn
    prologue: Callable[[int, int], list[str]] = lambda lmul, unroll: []
    epilogue: Callable[[int, int], list[str]] = lambda lmul, unroll: []


def _elementwise(sig, t, sfx, sew, op, ptrs, lmuls, native_lmul) -> KernelShape:
    a, b, dst = (p for p, _ in ptrs)
    return KernelShape(
        signature=sig,
        sew=sew,
        lmuls=lmuls,
        native_lmul=native_lmul,
        pointers=ptrs,
        loads=lambda k, m, off, vl: [
            f"v{t}m{m}_t va{k} = __riscv_vle{sew}_v_{sfx}m{m}({a} + {off}, {vl});",
            f"v{t}m{m}_t vb{k} = __riscv_vle{sew}_v_{sfx}m{m}({b} + {off}, {vl});",
        ],
        ops=lambda k, m, off, vl: [
            f"v{t}m{m}_t vc{k} = __riscv_{op}_vv_{sfx}m{m}(va{k}, vb{k}, {vl});",
        ],
        stores=lambda k, m, off, vl: [
            f"__riscv_vse{sew}_v_{sfx}m{m}({dst} + {off}, vc{k}, {vl});",
        ],
    )


SHAPES: dict[str, KernelShape] = {
    "vec_add": _elementwise(
        "void vec_add_s32(const int32_t *a, const int32_t *b, int32_t *c, size_t n)",
        "int32", "i32", 32, "vadd", (("a", 1), ("b", 1), ("c", 1)), (1, 2, 4, 8), 2,
    ),
    "sat_add_u8": _elementwise(
        "void sat_add_u8(const uint8_t *a, const uint8_t *b, uint8_t *dst, size_t n)",
        "uint8", "u8", 8, "vsaddu", (("a", 1), ("b", 1), ("dst", 1)), (1, 2, 4, 8), 4,
    ),
    "mulh_s16": _elementwise(
        "void mulh_s16(const int16_t *a, const int16_t *b, int16_t *dst, size_t n)",
        "int16", "i16", 16, "vmulh", (("a", 1), ("b", 1), ("dst", 1)), (1, 2, 4, 8), 2,
    ),
    "deinterleave_rgb": KernelShape(
        signature="void deinterleave_rgb_u8(const uint8_t *rgb, uint8_t *r, uint8_t *g, "
                  "uint8_t *b, size_t n)",
        sew=8,
        lmuls=(1, 2),  # a three-field tuple needs 3 * LMUL <= 8
        native_lmul=2,
        pointers=(("rgb", 3), ("r", 1), ("g", 1), ("b", 1)),
        loads=lambda k, m, off, vl: [
            f"vuint8m{m}x3_t pix{k} = __riscv_vlseg3e8_v_u8m{m}x3(rgb + 3 * ({off}), {vl});",
        ],
        ops=lambda k, m, off, vl: [
            f"vuint8m{m}_t v{c}{k} = __riscv_vget_v_u8m{m}x3_u8m{m}(pix{k}, {i});"
            for i, c in enumerate("rgb")
        ],
        stores=lambda k, m, off, vl: [
            f"__riscv_vse8_v_u8m{m}({c} + {off}, v{c}{k}, {vl});" for c in "rgb"
        ],
    ),
    "upsample2x_u8": KernelShape(
        signature="void upsample2x_u8(const uint8_t *src, uint8_t *dst, size_t n)",
        sew=8,
        lmuls=(1, 2),  # gather indices are u8 at twice the LMUL: at most 256 lanes
        native_lmul=1,
        pointers=(("src", 1), ("dst", 2)),
        loads=lambda k, m, off, vl: [
            f"vuint8m{m}_t s{k} = __riscv_vle8_v_u8m{m}(src + {off}, {vl});",
        ],
        ops=lambda k, m, off, vl: [
            f"vuint8m{2 * m}_t wide{k} = __riscv_vlmul_ext_v_u8m{m}_u8m{2 * m}(s{k});",
            f"vuint8m{2 * m}_t idx{k} = __riscv_vid_v_u8m{2 * m}(2 * {vl});",
            f"vuint8m{2 * m}_t half{k} = __riscv_vsrl_vx_u8m{2 * m}(idx{k}, 1, 2 * {vl});",
            f"vuint8m{2 * m}_t out{k} = __riscv_vrgather_vv_u8m{2 * m}(wide{k}, half{k}, "
            f"2 * {vl});",
        ],
        stores=lambda k, m, off, vl: [
            f"__riscv_vse8_v_u8m{2 * m}(dst + 2 * ({off}), out{k}, 2 * {vl});",
        ],
    ),
    "dot_f32": KernelShape(
        signature="float dot_f32(const float *a, const float *b, size_t n)",
        sew=32,
        lmuls=(1, 2, 4, 8),
        native_lmul=2,
        pointers=(("a", 1), ("b", 1)),
        prologue=lambda m, u: [
            f"vfloat32m{m}_t acc{k} = __riscv_vfmv_v_f_f32m{m}(0.0f, vlmax);" for k in range(u)
        ],
        loads=lambda k, m, off, vl: [
            f"vfloat32m{m}_t va{k} = __riscv_vle32_v_f32m{m}(a + {off}, {vl});",
            f"vfloat32m{m}_t vb{k} = __riscv_vle32_v_f32m{m}(b + {off}, {vl});",
        ],
        ops=lambda k, m, off, vl: [
            f"acc{'0' if k == 't' else k} = __riscv_vfmacc_vv_f32m{m}_tu("
            f"acc{'0' if k == 't' else k}, va{k}, vb{k}, {vl});",
        ],
        stores=lambda k, m, off, vl: [],
        epilogue=lambda m, u: [
            f"acc0 = __riscv_vfadd_vv_f32m{m}(acc0, acc{k}, vlmax);" for k in range(1, u)
        ] + [
            "vfloat32m1_t zero = __riscv_vfmv_s_f_f32m1(0.0f, 1);",
            f"vfloat32m1_t red = __riscv_vfredusum_vs_f32m{m}_f32m1(acc0, zero, vlmax);",
            "return __riscv_vfmv_f_s_f32m1_f32(red);",
        ],
    ),
    "max_s16": KernelShape(
        signature="int16_t max_s16(const int16_t *src, size_t n)",
        sew=16,
        lmuls=(1, 2, 4, 8),
        native_lmul=2,
        pointers=(("src", 1),),
        prologue=lambda m, u: ["vint16m1_t acc = __riscv_vmv_s_x_i16m1(INT16_MIN, 1);"],
        loads=lambda k, m, off, vl: [
            f"vint16m{m}_t v{k} = __riscv_vle16_v_i16m{m}(src + {off}, {vl});",
        ],
        ops=lambda k, m, off, vl: [
            f"acc = __riscv_vredmax_vs_i16m{m}_i16m1(v{k}, acc, {vl});",
        ],
        stores=lambda k, m, off, vl: [],
        epilogue=lambda m, u: ["return __riscv_vmv_x_s_i16m1_i16(acc);"],
    ),
}

BASE_CASES = tuple(sorted(SHAPES))

_INCLUDES = ["#include <riscv_vector.h>", "#include <stddef.h>", "#include <stdint.h>", ""]


def _advance(shape: KernelShape, step: str) -> list[str]:
    lines = [
        f"{p} += {step};" if scale == 1 else f"{p} += {scale} * {step};"
        for p, scale in shape.pointers
    ]
    return lines + [f"n -= {step};"]


def kernel(case: str, unroll: int, lmul: int) -> str:
    """Candidate C file for a bundled case at the given unroll and LMUL."""
    shape = SHAPES[case]
    if lmul not in shape.lmuls or unroll < 1:
        raise ValueError(f"{case}: no kernel at unroll {unroll}, LMUL {lmul}")
    m, sew = lmul, shape.sew
    body = [f"size_t vlmax = __riscv_vsetvlmax_e{sew}m{m}();"]
    body += shape.prologue(m, unroll)
    if unroll > 1:
        body.append(f"while (n >= {unroll} * vlmax) {{")
        streams = [(str(k), f"{k} * vlmax") for k in range(unroll)]
        inner = []
        for part in (shape.loads, shape.ops, shape.stores):
            for k, off in streams:
                inner += part(k, m, off, "vlmax")
        inner += _advance(shape, f"{unroll} * vlmax")
        body += ["    " + ln for ln in inner] + ["}"]
    tail = [f"size_t vl = __riscv_vsetvl_e{sew}m{m}(n);"]
    for part in (shape.loads, shape.ops, shape.stores):
        tail += part("t", m, "0", "vl")
    tail += _advance(shape, "vl")
    body += ["while (n > 0) {"] + ["    " + ln for ln in tail] + ["}"]
    body += shape.epilogue(m, unroll)
    lines = _INCLUDES + [shape.signature + " {"]
    lines += ["    " + ln for ln in body] + ["}", ""]
    return "\n".join(lines)


def unroll_for(case: str, lmul: int, statements: int) -> int:
    """Smallest unroll whose candidate has at least ``statements`` statements."""
    unroll = 1
    while kernel(case, unroll, lmul).count(";") < statements:
        unroll += 1
    return unroll


_LANE_COUNT_SCALAR_TAIL = {
    "vec_add": "c[i] = a[i] + b[i];",
    "sat_add_u8": "dst[i] = (a[i] + b[i] > 255) ? 255 : a[i] + b[i];",
    "mulh_s16": "dst[i] = (int16_t)(((int32_t)a[i] * (int32_t)b[i]) >> 16);",
}


def lane_count_kernel(case: str) -> str | None:
    """A candidate that hard-codes the lane count of VLEN 128, or None.

    It steps by 128 / SEW elements but loads and stores ``vsetvlmax``
    elements, so at VLEN 256 and above it writes past the end of the output.
    Only the two-input element-wise cases have one.
    """
    if case not in _LANE_COUNT_SCALAR_TAIL:
        return None
    shape = SHAPES[case]
    lanes = 128 // shape.sew
    vector = [
        *shape.loads("0", 1, "i", "vl"),
        *shape.ops("0", 1, "i", "vl"),
        *shape.stores("0", 1, "i", "vl"),
    ]
    body = [
        "size_t i = 0;",
        f"size_t vl = __riscv_vsetvlmax_e{shape.sew}m1(); /* {lanes} lanes */",
        f"for (; i + {lanes} <= n; i += {lanes}) {{",
        *("    " + ln for ln in vector),
        "}",
        "for (; i < n; i++) {",
        "    " + _LANE_COUNT_SCALAR_TAIL[case],
        "}",
    ]
    lines = _INCLUDES + [shape.signature + " {"] + ["    " + ln for ln in body] + ["}", ""]
    return "\n".join(lines)
