/* Every construct the analyzer front end accepts, in one function.
 * Block comments may span lines; the lines after one keep their numbers. */
#include <riscv_vector.h>
#include <stddef.h>
#include <stdint.h>

  #define SCALE(x) \
      ((x) * 2) \   
      + 0

// Line comments run to the end of the line.
int32_t constructs(const int32_t *src, int32_t *dst, size_t n, int flag) {
    const char *tag = "/* not a comment */ // nor this";
    char slash = '/';
    int32_t total = 0;
    size_t i = 0;
    vint32m1_t acc = __riscv_vmv_v_x_i32m1(0, 4); /* trailing block comment */
    vint32mf2_t half = __riscv_vmv_v_x_i32mf2(1, 2);
    do {
        size_t vl = __riscv_vsetvl_e32m1(n);
        vint32m1_t x = __riscv_vle32_v_i32m1(src, vl); // trailing line comment
        vbool32_t neg = __riscv_vmslt_vx_i32m1_b32(x, 0, vl);
        x = __riscv_vneg_v_i32m1_m(neg, x, vl);
        if (flag) {
            acc = __riscv_vadd_vv_i32m1(acc, x, vl);
        } else {
            acc = __riscv_vsub_vv_i32m1(acc, /* inline */ x, vl);
        }
        if (vl == 0) {
            break;
        }
        src += vl;
        n -= vl;
    } while (n > 0);
    for (i = 0; i < 4;) {
        half = __riscv_vadd_vv_i32mf2(half, half, 2);
        i += 1;
        if (i == 2) {
            continue;
        }
        __riscv_vse32_v_i32mf2(dst, half, 2);
    }
    while (total < 8) {
        vint32m2x2_t pair = __riscv_vlseg2e32_v_i32m2x2(src, 4);
        vint32m2_t lo = __riscv_vget_v_i32m2x2_i32m2(pair, 0);
        __riscv_vse32_v_i32m2(dst, lo, 4);
        total = SCALE(total) + 1;
    }
    __riscv_vse32_v_i32m1(dst, acc, 4);
    __riscv_vse32_v_i32mf2(dst, half, 2);
    return total + slash + (tag != 0);
}
