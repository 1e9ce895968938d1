/* The idiomatic strip-mined loop: an early return on an empty input, then a
 * for loop that declares the vector length and whose step moves the count
 * and both pointers on by it. y[i] += a * x[i] at LMUL 4. */
#include <riscv_vector.h>
#include <stddef.h>
#include <stdint.h>

void stripmine(const int32_t *x, int32_t *y, int32_t a, size_t n) {
    if (n == 0) return;
    for (size_t vl; n > 0; n -= vl, x += vl, y += vl) {
        vl = __riscv_vsetvl_e32m4(n);
        vint32m4_t vx = __riscv_vle32_v_i32m4(x, vl);
        vint32m4_t vy = __riscv_vle32_v_i32m4(y, vl);
        vy = __riscv_vmacc_vx_i32m4(vy, a, vx, vl);
        __riscv_vse32_v_i32m4(y, vy, vl);
    }
}
