/*
 * Portable scalar stand-in for <riscv_vector.h> (RVV intrinsics v1.0), so
 * RVV intrinsic C compiles and runs on any host C compiler.
 *
 * Written in the style of SIMDe: every vector type is a plain struct of
 * lanes sized for the largest supported VLEN, every intrinsic is a static
 * inline loop over the active elements. VLEN is read at run time from the
 * VECPORT_VLEN environment variable (default 128), so one binary can be
 * tested at several vector lengths. Semantics follow the RVV intrinsic
 * spec: vl = min(avl, VLMAX); tail elements of tail-agnostic results are
 * set to all ones, which the spec allows and which exposes code that reads
 * past vl; "_tu" forms keep the tail of their destination operand.
 *
 * Covered: the intrinsics that the bundled corpus references and the
 * benchmark's generated candidates use, with their element types (u8, i16,
 * i32, f32) at LMUL 1, 2, 4 and 8. Timings of
 * programs built on it are comparative proxies only; they say nothing about
 * RVV hardware.
 */
#ifndef VECPORT_SCALAR_RVV_SHIM_H
#define VECPORT_SCALAR_RVV_SHIM_H

#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define RVV_SHIM_VLEN_MAX 1024

static inline size_t rvv_shim_vlen(void) {
    static size_t vlen;
    if (vlen == 0) {
        const char *s = getenv("VECPORT_VLEN");
        long v = s ? strtol(s, NULL, 10) : 128;
        if (v < 64 || v > RVV_SHIM_VLEN_MAX || (v & (v - 1)) != 0) {
            fprintf(stderr, "riscv_vector.h shim: unsupported VECPORT_VLEN %s\n", s);
            exit(125);
        }
        vlen = (size_t)v;
    }
    return vlen;
}

#define RVV_SHIM_LANES(SEW, LMUL) (RVV_SHIM_VLEN_MAX * (LMUL) / (SEW))
#define RVV_SHIM_VLMAX(SEW, LMUL) (rvv_shim_vlen() * (LMUL) / (SEW))

/* Tail-agnostic policy: lanes [vl, vlmax) of a result read as all ones. */
#define RVV_SHIM_FILL_TAIL(R, VL, VLMAX)                                   \
    do {                                                                   \
        if ((VL) < (VLMAX))                                                \
            memset(&(R).v[(VL)], 0xff, ((VLMAX) - (VL)) * sizeof((R).v[0])); \
    } while (0)

/* ---- vsetvl ------------------------------------------------------------- */

#define RVV_SHIM_VSETVL(SEW, LMUL)                                          \
    static inline size_t __riscv_vsetvl_e##SEW##m##LMUL(size_t avl) {       \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                           \
        return avl < vlmax ? avl : vlmax;                                   \
    }                                                                       \
    static inline size_t __riscv_vsetvlmax_e##SEW##m##LMUL(void) {          \
        return RVV_SHIM_VLMAX(SEW, LMUL);                                   \
    }

#define RVV_SHIM_VSETVL_ALL(SEW) \
    RVV_SHIM_VSETVL(SEW, 1) RVV_SHIM_VSETVL(SEW, 2) RVV_SHIM_VSETVL(SEW, 4) RVV_SHIM_VSETVL(SEW, 8)

RVV_SHIM_VSETVL_ALL(8)
RVV_SHIM_VSETVL_ALL(16)
RVV_SHIM_VSETVL_ALL(32)

/* ---- op families, instantiated per element type and LMUL below --------- */

#define RVV_SHIM_TYPE(T, E, SEW, LMUL) \
    typedef struct { E v[RVV_SHIM_LANES(SEW, LMUL)]; } T;

#define RVV_SHIM_COMMON(SFX, T, E, SEW, LMUL)                                  \
    static inline T __riscv_vle##SEW##_v_##SFX(const E *p, size_t vl) {        \
        T r;                                                                   \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                              \
        memcpy(r.v, p, vl * sizeof(E));                                        \
        RVV_SHIM_FILL_TAIL(r, vl, vlmax);                                      \
        return r;                                                              \
    }                                                                          \
    static inline void __riscv_vse##SEW##_v_##SFX(E *p, T a, size_t vl) {      \
        memcpy(p, a.v, vl * sizeof(E));                                        \
    }

#define RVV_SHIM_BINOP(NAME, SFX, T, E, SEW, LMUL, EXPR)                       \
    static inline T __riscv_##NAME##_vv_##SFX(T a, T b, size_t vl) {           \
        T r;                                                                   \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                              \
        for (size_t i = 0; i < vl; i++) {                                      \
            E x = a.v[i], y = b.v[i];                                          \
            r.v[i] = (E)(EXPR);                                                \
        }                                                                      \
        RVV_SHIM_FILL_TAIL(r, vl, vlmax);                                      \
        return r;                                                              \
    }

/* Reduction into element 0 of an LMUL=1 result; its other lanes are tail. */
#define RVV_SHIM_REDUCE(NAME, SFX, T, M1SFX, M1T, E, SEW, EXPR)                \
    static inline M1T __riscv_##NAME##_vs_##SFX##_##M1SFX(T a, M1T s,          \
                                                           size_t vl) {        \
        M1T r;                                                                 \
        E acc = s.v[0];                                                        \
        for (size_t i = 0; i < vl; i++) {                                      \
            E x = acc, y = a.v[i];                                             \
            acc = (E)(EXPR);                                                   \
        }                                                                      \
        r.v[0] = acc;                                                          \
        RVV_SHIM_FILL_TAIL(r, (size_t)1, RVV_SHIM_VLMAX(SEW, 1));              \
        return r;                                                              \
    }

/* Splat, scalar into element 0, and element 0 out. */
#define RVV_SHIM_SCALAR_MOVES(MV, SX, SFX, T, E, ESFX, SEW, LMUL)              \
    static inline T __riscv_##MV##_v_##SX##_##SFX(E x, size_t vl) {           \
        T r;                                                                   \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                              \
        for (size_t i = 0; i < vl; i++) r.v[i] = x;                            \
        RVV_SHIM_FILL_TAIL(r, vl, vlmax);                                      \
        return r;                                                              \
    }                                                                          \
    static inline T __riscv_##MV##_s_##SX##_##SFX(E x, size_t vl) {           \
        T r;                                                                   \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                              \
        size_t n = vl ? 1 : 0;                                                 \
        if (n) r.v[0] = x;                                                     \
        RVV_SHIM_FILL_TAIL(r, n, vlmax);                                       \
        return r;                                                              \
    }                                                                          \
    static inline E __riscv_##MV##_##SX##_s_##SFX##_##ESFX(T a) { return a.v[0]; }

#define RVV_SHIM_SIGNED(SFX, T, E, ESFX, WIDE, SEW, LMUL, M1SFX, M1T)          \
    RVV_SHIM_COMMON(SFX, T, E, SEW, LMUL)                                      \
    RVV_SHIM_SCALAR_MOVES(vmv, x, SFX, T, E, ESFX, SEW, LMUL)                  \
    RVV_SHIM_BINOP(vadd, SFX, T, E, SEW, LMUL, x + y)                          \
    RVV_SHIM_BINOP(vmulh, SFX, T, E, SEW, LMUL, ((WIDE)x * (WIDE)y) >> SEW)    \
    RVV_SHIM_REDUCE(vredmax, SFX, T, M1SFX, M1T, E, SEW, x > y ? x : y)

#define RVV_SHIM_UNSIGNED(SFX, T, E, SEW, LMUL)                                \
    RVV_SHIM_COMMON(SFX, T, E, SEW, LMUL)                                      \
    RVV_SHIM_BINOP(vsaddu, SFX, T, E, SEW, LMUL, (E)(x + y) < x ? (E)~(E)0 : x + y) \
    static inline T __riscv_vsrl_vx_##SFX(T a, size_t shift, size_t vl) {      \
        T r;                                                                   \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                              \
        for (size_t i = 0; i < vl; i++)                                        \
            r.v[i] = (E)(a.v[i] >> (shift & (SEW - 1)));                       \
        RVV_SHIM_FILL_TAIL(r, vl, vlmax);                                      \
        return r;                                                              \
    }                                                                          \
    static inline T __riscv_vid_v_##SFX(size_t vl) {                           \
        T r;                                                                   \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                              \
        for (size_t i = 0; i < vl; i++) r.v[i] = (E)i;                         \
        RVV_SHIM_FILL_TAIL(r, vl, vlmax);                                      \
        return r;                                                              \
    }                                                                          \
    static inline T __riscv_vrgather_vv_##SFX(T a, T idx, size_t vl) {        \
        T r;                                                                   \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                              \
        for (size_t i = 0; i < vl; i++)                                        \
            r.v[i] = idx.v[i] < vlmax ? a.v[idx.v[i]] : 0;                     \
        RVV_SHIM_FILL_TAIL(r, vl, vlmax);                                      \
        return r;                                                              \
    }

#define RVV_SHIM_FLOAT(SFX, T, E, ESFX, SEW, LMUL, M1SFX, M1T)                 \
    RVV_SHIM_COMMON(SFX, T, E, SEW, LMUL)                                      \
    RVV_SHIM_SCALAR_MOVES(vfmv, f, SFX, T, E, ESFX, SEW, LMUL)                 \
    RVV_SHIM_BINOP(vfadd, SFX, T, E, SEW, LMUL, x + y)                         \
    RVV_SHIM_REDUCE(vfredusum, SFX, T, M1SFX, M1T, E, SEW, x + y)              \
    static inline T __riscv_vfmacc_vv_##SFX##_tu(T acc, T a, T b, size_t vl) { \
        for (size_t i = 0; i < vl; i++) acc.v[i] += a.v[i] * b.v[i];           \
        return acc;                                                            \
    }

/* ---- instantiation ------------------------------------------------------ */

#define RVV_SHIM_TYPES(P, E, SEW)                                               \
    RVV_SHIM_TYPE(v##P##m1_t, E, SEW, 1)                                        \
    RVV_SHIM_TYPE(v##P##m2_t, E, SEW, 2)                                        \
    RVV_SHIM_TYPE(v##P##m4_t, E, SEW, 4)                                        \
    RVV_SHIM_TYPE(v##P##m8_t, E, SEW, 8)

RVV_SHIM_TYPES(uint8, uint8_t, 8)
RVV_SHIM_TYPES(int16, int16_t, 16)
RVV_SHIM_TYPES(int32, int32_t, 32)
RVV_SHIM_TYPES(float32, float, 32)

#define RVV_SHIM_SIGNED_ALL(S, P, E, WIDE, SEW)                                           \
    RVV_SHIM_SIGNED(S##m1, v##P##m1_t, E, S, WIDE, SEW, 1, S##m1, v##P##m1_t)             \
    RVV_SHIM_SIGNED(S##m2, v##P##m2_t, E, S, WIDE, SEW, 2, S##m1, v##P##m1_t)             \
    RVV_SHIM_SIGNED(S##m4, v##P##m4_t, E, S, WIDE, SEW, 4, S##m1, v##P##m1_t)             \
    RVV_SHIM_SIGNED(S##m8, v##P##m8_t, E, S, WIDE, SEW, 8, S##m1, v##P##m1_t)

RVV_SHIM_SIGNED_ALL(i16, int16, int16_t, int32_t, 16)
RVV_SHIM_SIGNED_ALL(i32, int32, int32_t, int64_t, 32)

RVV_SHIM_UNSIGNED(u8m1, vuint8m1_t, uint8_t, 8, 1)
RVV_SHIM_UNSIGNED(u8m2, vuint8m2_t, uint8_t, 8, 2)
RVV_SHIM_UNSIGNED(u8m4, vuint8m4_t, uint8_t, 8, 4)
RVV_SHIM_UNSIGNED(u8m8, vuint8m8_t, uint8_t, 8, 8)

RVV_SHIM_FLOAT(f32m1, vfloat32m1_t, float, f32, 32, 1, f32m1, vfloat32m1_t)
RVV_SHIM_FLOAT(f32m2, vfloat32m2_t, float, f32, 32, 2, f32m1, vfloat32m1_t)
RVV_SHIM_FLOAT(f32m4, vfloat32m4_t, float, f32, 32, 4, f32m1, vfloat32m1_t)
RVV_SHIM_FLOAT(f32m8, vfloat32m8_t, float, f32, 32, 8, f32m1, vfloat32m1_t)

/* ---- LMUL extension (the added lanes are undefined: all ones here) ------ */

#define RVV_SHIM_LMUL_EXT(S, P, E, SEW, L1, L2)                                 \
    static inline v##P##m##L2##_t __riscv_vlmul_ext_v_##S##m##L1##_##S##m##L2(  \
        v##P##m##L1##_t a) {                                                    \
        v##P##m##L2##_t r;                                                      \
        size_t n = RVV_SHIM_VLMAX(SEW, L1);                                     \
        memcpy(r.v, a.v, n * sizeof(E));                                        \
        RVV_SHIM_FILL_TAIL(r, n, RVV_SHIM_VLMAX(SEW, L2));                      \
        return r;                                                               \
    }

RVV_SHIM_LMUL_EXT(u8, uint8, uint8_t, 8, 1, 2)
RVV_SHIM_LMUL_EXT(u8, uint8, uint8_t, 8, 2, 4)

/* ---- three-field segment loads (tuple types) ----------------------------- */

#define RVV_SHIM_SEG3(S, P, E, SEW, LMUL)                                       \
    typedef struct { v##P##m##LMUL##_t f[3]; } v##P##m##LMUL##x3_t;             \
    static inline v##P##m##LMUL##x3_t __riscv_vlseg3e##SEW##_v_##S##m##LMUL##x3( \
        const E *p, size_t vl) {                                                \
        v##P##m##LMUL##x3_t r;                                                  \
        size_t vlmax = RVV_SHIM_VLMAX(SEW, LMUL);                               \
        for (size_t i = 0; i < vl; i++) {                                       \
            r.f[0].v[i] = p[3 * i];                                             \
            r.f[1].v[i] = p[3 * i + 1];                                         \
            r.f[2].v[i] = p[3 * i + 2];                                         \
        }                                                                       \
        for (int k = 0; k < 3; k++) RVV_SHIM_FILL_TAIL(r.f[k], vl, vlmax);      \
        return r;                                                               \
    }                                                                           \
    static inline v##P##m##LMUL##_t __riscv_vget_v_##S##m##LMUL##x3_##S##m##LMUL( \
        v##P##m##LMUL##x3_t t, size_t index) {                                  \
        return t.f[index];                                                      \
    }

RVV_SHIM_SEG3(u8, uint8, uint8_t, 8, 1)
RVV_SHIM_SEG3(u8, uint8, uint8_t, 8, 2)

#endif /* VECPORT_SCALAR_RVV_SHIM_H */
