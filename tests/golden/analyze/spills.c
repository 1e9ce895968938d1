/* Five LMUL-8 values live at once need 40 registers, more than the 32 the
 * register file has, so the analyzer predicts spills. ``unused`` is defined
 * and never read, so it is reported as a dead definition. */
#include <riscv_vector.h>
#include <stddef.h>
#include <stdint.h>

void spills(const int32_t *a, const int32_t *b, int32_t *out, size_t n) {
    for (size_t vl; n > 0; n -= vl, a += vl, b += vl, out += vl) {
        vl = __riscv_vsetvl_e32m8(n);
        vint32m8_t x0 = __riscv_vle32_v_i32m8(a, vl);
        vint32m8_t x1 = __riscv_vle32_v_i32m8(b, vl);
        vint32m8_t x2 = __riscv_vadd_vv_i32m8(x0, x1, vl);
        vint32m8_t x3 = __riscv_vsub_vv_i32m8(x0, x1, vl);
        vint32mf2_t unused = __riscv_vmv_v_x_i32mf2(0, vl);
        vint32m8_t x4 = __riscv_vmul_vv_i32m8(x2, x3, vl);
        x4 = __riscv_vadd_vv_i32m8(x4, x0, vl);
        x4 = __riscv_vadd_vv_i32m8(x4, x1, vl);
        x4 = __riscv_vadd_vv_i32m8(x4, x2, vl);
        x4 = __riscv_vadd_vv_i32m8(x4, x3, vl);
        __riscv_vse32_v_i32m8(out, x4, vl);
    }
}
