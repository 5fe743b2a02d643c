/* The negacyclic (i)NTT of every row of a (rows, N) uint64 stack, in place.
 *
 * Row r is reduced modulo q[r] < 2**62 and reads its table tables[r]: N
 * (w, floor(w * 2**64 / q)) pairs, the twiddles in bit-reversed order with
 * their Shoup companions (repro.core.ntt.kernel_tables).  The forward is
 * Cooley-Tukey from normal-order input to bit-reversed output, the inverse
 * Gentleman-Sande back; both run the butterflies of reference_transform in
 * its order, on Harvey's lazy representatives (arXiv:1205.2926): rows stay
 * in [0, 4q) between stages and are made canonical in one last pass.  No
 * stage reads entry 0 of a table, so the inverse's holds N^-1, which that
 * pass multiplies in.  Input: [0, 4q) forward, [0, 2q) inverse.
 */
#include <stddef.h>
#include <stdint.h>

/* x * w mod q in [0, 2q) for any 64-bit x: the 128-bit product's high word
 * is floor(x w / q) or one less. */
static inline uint64_t mul_shoup(uint64_t x, const uint64_t *w, uint64_t q)
{
    uint64_t quotient = (uint64_t)(((unsigned __int128)x * w[1]) >> 64);
    return x * w[0] - quotient * q;
}

static void forward_row(uint64_t *a, size_t n, uint64_t q, const uint64_t *table)
{
    const uint64_t two_q = 2 * q;
    for (size_t m = 1, t = n / 2; m < n; m *= 2, t /= 2) {
        for (size_t i = 0; i < m; i++) {
            const uint64_t *w = table + 2 * (m + i);
            uint64_t *x = a + 2 * i * t, *y = x + t;
            for (size_t j = 0; j < t; j++) {
                uint64_t u = x[j] >= two_q ? x[j] - two_q : x[j];
                uint64_t v = mul_shoup(y[j], w, q);
                x[j] = u + v;
                y[j] = u + two_q - v;
            }
        }
    }
    for (size_t j = 0; j < n; j++) {
        uint64_t u = a[j] >= two_q ? a[j] - two_q : a[j];
        a[j] = u >= q ? u - q : u;
    }
}

static void inverse_row(uint64_t *a, size_t n, uint64_t q, const uint64_t *table)
{
    const uint64_t two_q = 2 * q;
    for (size_t m = n / 2, t = 1; m > 0; m /= 2, t *= 2) {
        for (size_t i = 0; i < m; i++) {
            const uint64_t *w = table + 2 * (m + i);
            uint64_t *x = a + 2 * i * t, *y = x + t;
            for (size_t j = 0; j < t; j++) {
                uint64_t u = x[j], v = y[j], s = u + v;
                x[j] = s >= two_q ? s - two_q : s;
                y[j] = mul_shoup(u + two_q - v, w, q);
            }
        }
    }
    for (size_t j = 0; j < n; j++) {
        uint64_t u = mul_shoup(a[j], table, q);
        a[j] = u >= q ? u - q : u;
    }
}

void ntt(uint64_t *a, size_t rows, size_t n, const uint64_t *q,
         const uint64_t *const *tables, int inverse)
{
    for (size_t r = 0; r < rows; r++) {
        (inverse ? inverse_row : forward_row)(a + r * n, n, q[r], tables[r]);
    }
}
