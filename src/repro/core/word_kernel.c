/* The word kernel: every modular product on a word-sized residue stack.
 *
 * A residue modulo q < 2**62 is one uint64 word.  Two entry points cover the
 * library's arithmetic on such words (repro.core.modmath loads this file):
 *
 *   dot  -- (sum_t x_t * y_t) mod q over a (rows, N) stack, reduced once
 *           (the wide accumulator and dot-product fusion of FIDESlib
 *           §III-F.3/F.5); one term is a product, a column operand a
 *           per-row constant;
 *   ntt  -- the negacyclic (i)NTT of every row, in place (§III-F.4).
 *
 * shoup_companions builds the NTT tables' 64-bit Shoup companions.
 */
#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

static inline uint64_t mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)(((u128)a * b) >> 64);
}

/* ---- dot ------------------------------------------------------------------
 *
 * Each row picks its form from the largest product its operands can make,
 * p = (x_max)(q - 1) with x_max = q - 1 for canonical operands or the
 * caller's bound (base conversion multiplies source residues into narrower
 * targets): the narrow form sums products in one 64-bit word, the wide form
 * in a 128-bit one.  Either folds to a residue below q after `room`
 * products, so that a residue plus `room` products cannot pass the word.
 * The narrow form is chosen when at least min(terms, 4) products fit.
 */

struct row {
    uint64_t q;
    uint64_t m;        /* floor(2**64 / q), Barrett's constant */
    uint64_t r;        /* 2**64 mod q (wide form) */
    uint64_t r_shoup;  /* floor(r * 2**64 / q) (wide form) */
    size_t room;       /* products summed between two folds */
    int narrow;
};

static void row_constants(struct row *c, uint64_t q, uint64_t x_bound, size_t terms)
{
    const u128 p = (u128)(x_bound ? x_bound - 1 : q - 1) * (q - 1);
    const size_t wanted = terms < 4 ? terms : 4;
    u128 room = p ? ((((u128)1) << 64) - q) / p : terms;

    c->q = q;
    c->m = UINT64_MAX / q;
    if (UINT64_MAX - c->m * q == q - 1)
        c->m++;
    c->narrow = room >= wanted;
    if (!c->narrow) {
        c->r = (0 - q) % q;
        c->r_shoup = (uint64_t)(((u128)c->r << 64) / q);
        room = (~(u128)0 - q) / p;
    }
    c->room = room < terms ? (size_t)room : terms;
}

/* x mod q for any 64-bit x: the Barrett quotient is exact or one short. */
static inline uint64_t reduce64(uint64_t x, struct row c)
{
    uint64_t s = x - mulhi(x, c.m) * c.q;
    return s >= c.q ? s - c.q : s;
}

/* x mod q for any 128-bit x = hi * 2**64 + lo, as hi * r + lo: a Shoup
 * product and a Barrett remainder, each in [0, 2q), then two corrections. */
static inline uint64_t reduce128(u128 x, struct row c)
{
    const uint64_t hi = (uint64_t)(x >> 64), lo = (uint64_t)x, two_q = 2 * c.q;
    uint64_t s = hi * c.r - mulhi(hi, c.r_shoup) * c.q;
    s += lo - mulhi(lo, c.m) * c.q;
    s = s >= two_q ? s - two_q : s;
    return s >= c.q ? s - c.q : s;
}

/* An operand: its first element and its strides, in elements (0 on an axis
 * it is broadcast along). */
struct operand {
    int64_t address, row_stride, col_stride;
};

/* True when two views over (rows, n) may overlap without being the same
 * view (compared by the spans of their bytes). */
static int overlaps(const struct operand *a, const struct operand *b,
                    size_t rows, size_t n)
{
    int64_t lo[2], hi[2];
    const struct operand *v[2] = {a, b};
    if (a->address == b->address && a->row_stride == b->row_stride
            && a->col_stride == b->col_stride)
        return 0;
    for (int k = 0; k < 2; k++) {
        int64_t span_r = (int64_t)(rows - 1) * v[k]->row_stride * 8;
        int64_t span_c = (int64_t)(n - 1) * v[k]->col_stride * 8;
        lo[k] = v[k]->address + (span_r < 0 ? span_r : 0) + (span_c < 0 ? span_c : 0);
        hi[k] = v[k]->address + (span_r > 0 ? span_r : 0) + (span_c > 0 ? span_c : 0) + 8;
    }
    return lo[0] < hi[1] && lo[1] < hi[0];
}

static inline const uint64_t *row_of(struct operand op, size_t r)
{
    return (const uint64_t *)(intptr_t)op.address + (int64_t)r * op.row_stride;
}

#define BLOCK 256

/* One row's block of the sum: acc gathers the first terms, folded every
 * c.room products, and the last term is added as the block is reduced into
 * dst.  x + j * xs is element j of an operand's block. */
#define ROW_BLOCK(acc_t, reduce)                                                \
    do {                                                                        \
        acc_t acc[BLOCK];                                                       \
        for (size_t t = 0; t < terms; t++) {                                    \
            const struct operand xo = xy[2 * t], yo = xy[2 * t + 1];            \
            const int64_t xs = xo.col_stride, ys = yo.col_stride;               \
            const uint64_t *x = row_of(xo, r) + (int64_t)j0 * xs;               \
            const uint64_t *y = row_of(yo, r) + (int64_t)j0 * ys;               \
            const int fold = t && t % c.room == 0;                              \
            if (t == 0 && terms == 1) {                                         \
                for (ptrdiff_t j = 0; j < len; j++)                             \
                    dst[j * ds] = reduce((acc_t)x[j * xs] * y[j * ys], c);      \
            } else if (t == 0) {                                                \
                for (ptrdiff_t j = 0; j < len; j++)                             \
                    acc[j] = (acc_t)x[j * xs] * y[j * ys];                      \
            } else if (t + 1 < terms) {                                         \
                for (ptrdiff_t j = 0; j < len; j++)                             \
                    acc[j] = (fold ? reduce(acc[j], c) : acc[j])                \
                             + (acc_t)x[j * xs] * y[j * ys];                    \
            } else {                                                            \
                for (ptrdiff_t j = 0; j < len; j++)                             \
                    dst[j * ds] = reduce((fold ? reduce(acc[j], c) : acc[j])    \
                                         + (acc_t)x[j * xs] * y[j * ys], c);    \
            }                                                                   \
        }                                                                       \
    } while (0)

/* Returns 1, computing nothing, when `out` overlaps an operand it is not. */
int dot(size_t rows, size_t n, size_t terms, uint64_t x_bound,
        const struct operand *operands)
{
    const struct operand out = operands[0], moduli = operands[1];
    const struct operand *xy = operands + 2;
    struct row c = {0};

    if (!rows || !n)
        return 0;
    for (size_t t = 0; t < 2 * terms; t++)
        if (overlaps(&out, &xy[t], rows, n))
            return 1;
    for (size_t r = 0; r < rows; r++) {
        const uint64_t q = row_of(moduli, r)[0];
        if (q != c.q)
            row_constants(&c, q, x_bound, terms);
        for (size_t j0 = 0; j0 < n; j0 += BLOCK) {
            const ptrdiff_t len = n - j0 < BLOCK ? (ptrdiff_t)(n - j0) : BLOCK;
            const int64_t ds = out.col_stride;
            uint64_t *dst = (uint64_t *)row_of(out, r) + (int64_t)j0 * ds;
            if (c.narrow)
                ROW_BLOCK(uint64_t, reduce64);
            else
                ROW_BLOCK(u128, reduce128);
        }
    }
    return 0;
}

/* ---- shoup_companions -----------------------------------------------------
 *
 * Fills count (w, w') pairs: w' = floor(w * 2**64 / q) for canonical w. */
void shoup_companions(uint64_t *pairs, size_t count, uint64_t q)
{
    for (size_t i = 0; i < count; i++)
        pairs[2 * i + 1] = (uint64_t)(((u128)pairs[2 * i] << 64) / q);
}

/* ---- ntt ------------------------------------------------------------------
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

/* x * w mod q in [0, 2q) for any 64-bit x: the 128-bit product's high word
 * is floor(x w / q) or one less. */
static inline uint64_t mul_shoup(uint64_t x, const uint64_t *w, uint64_t q)
{
    return x * w[0] - mulhi(x, w[1]) * q;
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
