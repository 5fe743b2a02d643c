/* The word kernel: every modular product, sum and transform on a
 * word-sized residue stack.
 *
 * A residue modulo q < 2**62 is one uint64 word.  Three entry points cover
 * the library's arithmetic on such words (repro.core.modmath loads this
 * file):
 *
 *   dot  -- (sum_t x_t * y_t) mod q over a (rows, N) stack, reduced once
 *           (the wide accumulator and dot-product fusion of FIDESlib
 *           §III-F.3/F.5); one term is a product, a column operand a
 *           per-row constant;
 *   add  -- (±x ± y) mod q over canonical residues: a sum, a
 *           difference, a negation, a column of constants added;
 *   ntt  -- the negacyclic (i)NTT of every row, in place (§III-F.4).
 *
 * shoup_companions builds the NTT tables' 64-bit Shoup companions.
 *
 * Each entry runs a row either one word at a time or, on a CPU that has
 * AVX-512F, eight words to a register (after Intel HEXL,
 * arXiv:2103.16400):
 *
 *   dot  -- vector when q < 2**31 and x is below 2**31, so every product
 *           is one 32x32->64-bit multiply;
 *   add  -- vector on every row: its lanes only add, subtract and compare;
 *   ntt  -- vector when q < 2**31 and N >= 16;
 *
 * and dot and add only when out is contiguous along a row and every
 * operand contiguous or broadcast (a column of per-row constants); the
 * last N mod 8 words of a vector row run the scalar code.  Both paths
 * compute canonical residues exactly, so they agree bit for bit.  The file
 * is built with no host-specific flag: vector_isa asks the CPU at run time
 * whether it has what the vector paths use.
 */
#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

static inline uint64_t mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)(((u128)a * b) >> 64);
}

/* Moduli (and dot's x operands) below this run in the 32-bit lane
 * products of the vector paths. */
#define VECTOR_LIMIT ((uint64_t)1 << 31)

/* ---- the vector helpers --------------------------------------------------- */

#if defined(__x86_64__)
#include <immintrin.h>

/* Every vector path is AVX-512F alone. */
#define AVX512 __attribute__((target("avx512f")))

static int vector_isa(void)
{
    return __builtin_cpu_supports("avx512f");
}

/* x - m when x >= m, else x, for x < 2m: below m, x - m wraps above x. */
static inline AVX512 __m512i fold(__m512i x, __m512i m)
{
    return _mm512_min_epu64(x, _mm512_sub_epi64(x, m));
}

/* y * w mod q in [0, 2q) for the low 32 bits y of each lane, given
 * wp = floor(w * 2**32 / q): _mm512_mul_epu32 reads only those bits. */
static inline AVX512 __m512i mul_shoup32(__m512i y, __m512i w, __m512i wp, __m512i q)
{
    const __m512i quotient = _mm512_srli_epi64(_mm512_mul_epu32(y, wp), 32);
    return _mm512_sub_epi64(_mm512_mul_epu32(y, w), _mm512_mul_epu32(quotient, q));
}

/* Eight words of an operand's row from word j: contiguous, or its one
 * word broadcast (stride 0). */
static inline AVX512 __m512i lanes_at(const uint64_t *x, int64_t stride, size_t j)
{
    return stride ? _mm512_loadu_si512(x + j) : _mm512_set1_epi64((long long)x[0]);
}
#endif

/* ---- operands ------------------------------------------------------------- */

/* An operand: its first element and its strides, in elements (0 on an axis
 * it is broadcast along).  dot and add take an array of them: out, the
 * (rows, 1) moduli column, then the terms. */
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

/* True when out overlaps one of the count inputs without being it. */
static int overlaps_any(const struct operand *operands, size_t count, size_t rows, size_t n)
{
    for (size_t t = 0; t < count; t++)
        if (overlaps(&operands[0], &operands[2 + t], rows, n))
            return 1;
    return 0;
}

#if defined(__x86_64__)
/* True when out is contiguous along a row and each of the count inputs
 * contiguous or broadcast: what the vector paths read. */
static int unit_strides(const struct operand *operands, size_t count)
{
    for (size_t t = 0; t < count; t++)
        if ((uint64_t)operands[2 + t].col_stride > 1)
            return 0;
    return operands[0].col_stride == 1;
}
#endif

static inline const uint64_t *row_of(struct operand op, size_t r)
{
    return (const uint64_t *)(intptr_t)op.address + (int64_t)r * op.row_stride;
}

#define BLOCK 256

/* ---- dot ------------------------------------------------------------------
 *
 * Each row picks its form from the largest product its operands can make,
 * p = (x_max)(q - 1) with x_max = q - 1 for canonical operands or the
 * caller's bound (base conversion multiplies source residues into narrower
 * targets): the narrow form sums products in one 64-bit word, the wide form
 * in a 128-bit one.  Either folds to a residue below q after `room`
 * products, so that a residue plus `room` products cannot pass the word.
 * The narrow form is chosen when at least min(terms, 4) products fit.  A
 * vector row (q and x_max below 2**31, so p < 2**62 and room >= 4) is
 * always narrow: it runs the same schedule in 64-bit lanes.
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

#if defined(__x86_64__)
/* acc mod q for any 64-bit lanes, q < 2**31: acc = h * 2**32 + l is
 * congruent to h * r + l * 1 with r = 2**32 mod q, two Shoup products in
 * [0, 2q) (h and l are below 2**32; 1's companion is floor(2**32 / q)),
 * then two corrections. */
struct lanes {
    __m512i q, two_q, r, r_shoup, low, one_shoup;  /* low = 2**32 - 1 */
};

static inline AVX512 __m512i reduce_lanes(__m512i acc, const struct lanes *k)
{
    const __m512i l = _mm512_and_si512(acc, k->low);
    const __m512i l_quotient = _mm512_srli_epi64(_mm512_mul_epu32(l, k->one_shoup), 32);
    const __m512i s = _mm512_add_epi64(
        mul_shoup32(_mm512_srli_epi64(acc, 32), k->r, k->r_shoup, k->q),
        _mm512_sub_epi64(l, _mm512_mul_epu32(l_quotient, k->q)));
    return fold(fold(s, k->two_q), k->q);
}

/* ROW_BLOCK's schedule on row r's first n - n mod 8 words, eight to a
 * register: each product one _mm512_mul_epu32, every sum in a 64-bit lane
 * folded every room products. */
static AVX512 void dot_row_avx512(uint64_t *dst, size_t r, size_t n, size_t terms,
                                  const struct operand *xy, uint64_t q, size_t room)
{
    const uint64_t r32 = ((uint64_t)1 << 32) % q;
    const struct lanes k = {
        _mm512_set1_epi64((long long)q), _mm512_set1_epi64((long long)(2 * q)),
        _mm512_set1_epi64((long long)r32), _mm512_set1_epi64((long long)((r32 << 32) / q)),
        _mm512_set1_epi64(UINT32_MAX), _mm512_set1_epi64((long long)(((uint64_t)1 << 32) / q)),
    };
    for (size_t j0 = 0; j0 + 8 <= n; j0 += BLOCK) {
        const size_t len = n - j0 < BLOCK ? (n - j0) & ~(size_t)7 : BLOCK;
        __m512i acc[BLOCK / 8];
        for (size_t t = 0; t < terms; t++) {
            const struct operand xo = xy[2 * t], yo = xy[2 * t + 1];
            const uint64_t *x = row_of(xo, r) + (int64_t)j0 * xo.col_stride;
            const uint64_t *y = row_of(yo, r) + (int64_t)j0 * yo.col_stride;
            const int folds = t && t % room == 0, last = t + 1 == terms;
            for (size_t j = 0; j < len; j += 8) {
                __m512i s = _mm512_mul_epu32(lanes_at(x, xo.col_stride, j),
                                             lanes_at(y, yo.col_stride, j));
                if (t)
                    s = _mm512_add_epi64(s, folds ? reduce_lanes(acc[j / 8], &k) : acc[j / 8]);
                if (last)
                    _mm512_storeu_si512(dst + j0 + j, reduce_lanes(s, &k));
                else
                    acc[j / 8] = s;
            }
        }
    }
}
#endif

/* Returns 1, computing nothing, when `out` overlaps an operand it is not. */
int dot(size_t rows, size_t n, size_t terms, uint64_t x_bound,
        const struct operand *operands)
{
    const struct operand out = operands[0], moduli = operands[1];
    const struct operand *xy = operands + 2;
    struct row c = {0};

    if (!rows || !n)
        return 0;
    if (overlaps_any(operands, 2 * terms, rows, n))
        return 1;
#if defined(__x86_64__)
    const int vector = unit_strides(operands, 2 * terms) && vector_isa()
                       && x_bound <= VECTOR_LIMIT;
#endif
    for (size_t r = 0; r < rows; r++) {
        const uint64_t q = row_of(moduli, r)[0];
        const int64_t ds = out.col_stride;
        size_t j = 0;
        if (q != c.q)
            row_constants(&c, q, x_bound, terms);
#if defined(__x86_64__)
        if (vector && q < VECTOR_LIMIT) {
            dot_row_avx512((uint64_t *)row_of(out, r), r, n, terms, xy, q, c.room);
            j = n - n % 8;
        }
#endif
        for (size_t j0 = j; j0 < n; j0 += BLOCK) {
            const ptrdiff_t len = n - j0 < BLOCK ? (ptrdiff_t)(n - j0) : BLOCK;
            uint64_t *dst = (uint64_t *)row_of(out, r) + (int64_t)j0 * ds;
            if (c.narrow)
                ROW_BLOCK(uint64_t, reduce64);
            else
                ROW_BLOCK(u128, reduce128);
        }
    }
    return 0;
}

/* ---- add ------------------------------------------------------------------
 *
 * (±x ± y) mod q over canonical residues: one term (x) or two (x, y), term
 * t subtracted when bit t of `negate` is set.  The sum starts at 0 and
 * stays canonical, each term one add or subtract and one correction: exact
 * for any q < 2**63. */

static inline uint64_t add_term(uint64_t s, uint64_t x, uint64_t q, int negative)
{
    if (negative)
        return s >= x ? s - x : s + (q - x);
    s += x;
    return s >= q ? s - q : s;
}

#if defined(__x86_64__)
/* add_term in eight lanes: below x, s - x wraps above s - x + q, so the
 * lane minimum picks the residue. */
static inline AVX512 __m512i add_lanes(__m512i s, __m512i x, __m512i q, int negative)
{
    if (negative) {
        s = _mm512_sub_epi64(s, x);
        return _mm512_min_epu64(s, _mm512_add_epi64(s, q));
    }
    return fold(_mm512_add_epi64(s, x), q);
}

/* Row r's first n - n mod 8 words, eight to a register. */
static AVX512 void add_row_avx512(uint64_t *dst, size_t r, size_t n, size_t terms,
                                  uint64_t negate, const struct operand *xy, uint64_t q64)
{
    const __m512i q = _mm512_set1_epi64((long long)q64);
    const struct operand xo = xy[0], yo = xy[terms - 1];
    const uint64_t *x = row_of(xo, r), *y = row_of(yo, r);
    for (size_t j = 0; j + 8 <= n; j += 8) {
        __m512i s = add_lanes(_mm512_setzero_si512(), lanes_at(x, xo.col_stride, j), q,
                              negate & 1);
        if (terms == 2)
            s = add_lanes(s, lanes_at(y, yo.col_stride, j), q, negate >> 1 & 1);
        _mm512_storeu_si512(dst + j, s);
    }
}
#endif

/* Returns 1, computing nothing, when `out` overlaps an operand it is not. */
int add(size_t rows, size_t n, size_t terms, uint64_t negate,
        const struct operand *operands)
{
    const struct operand out = operands[0], moduli = operands[1];
    const struct operand *xy = operands + 2;

    if (!rows || !n)
        return 0;
    if (overlaps_any(operands, terms, rows, n))
        return 1;
#if defined(__x86_64__)
    const int vector = unit_strides(operands, terms) && vector_isa();
#endif
    for (size_t r = 0; r < rows; r++) {
        const uint64_t q = row_of(moduli, r)[0];
        uint64_t *dst = (uint64_t *)row_of(out, r);
        size_t j = 0;
#if defined(__x86_64__)
        if (vector) {
            add_row_avx512(dst, r, n, terms, negate, xy, q);
            j = n - n % 8;
        }
#endif
        for (; j < n; j++) {
            uint64_t s = 0;
            for (size_t t = 0; t < terms; t++)
                s = add_term(s, row_of(xy[t], r)[(int64_t)j * xy[t].col_stride], q,
                             negate >> t & 1);
            dst[(int64_t)j * out.col_stride] = s;
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
 * Gentleman-Sande back.  Input: [0, 4q) forward, [0, 2q) inverse; output:
 * canonical.  No stage reads entry 0 of a table, so the inverse's holds
 * N^-1, which its last pass multiplies in as it makes the row canonical.
 *
 * A row takes one of two paths.  Both compute every butterfly exactly on
 * representatives of its residues, so their canonical results agree bit
 * for bit with each other and with reference_transform, whatever order
 * the independent butterflies of a stage run in.
 *
 *   scalar -- any q < 2**62: reference_transform's butterflies in its
 *             order, on Harvey's lazy representatives (arXiv:1205.2926):
 *             rows stay in [0, 4q) between stages, each twiddle product a
 *             Shoup multiply with a 128-bit quotient;
 *   vector -- q < 2**31 and N >= 16 (see the file header): eight
 *             residues per register, each in [0, 2q) < 2**32 in a 64-bit
 *             lane, so a Shoup multiply is three 32x32->64-bit products
 *             with the companion's high word, floor(w * 2**32 / q).
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

#if defined(__x86_64__)
/* The vector path.  Stages whose butterflies span more than BLOCK words
 * run breadth-first over the row; then each BLOCK-word block (16 KiB, well
 * inside an L1 data cache) runs all its remaining stages before the next
 * block starts.  The three stages of span 4, 2 and 1 -- the last forward,
 * the first inverse -- run on 16 words in two registers, permuted between
 * stages so that each stage's pairs sit in the same lane of two vectors:
 *
 *   memory  e0 .. e15 as two vectors (e0..e7, e8..e15)
 *   span 4  (e0-3, e8-11)           with (e4-7, e12-15)
 *   span 2  (e0 e1 e4 e5 e8 e9 e12 e13) with (e2 e3 e6 e7 e10 e11 e14 e15)
 *   span 1  (the even words)        with (the odd words)
 *
 * Each permutation below picks lanes of the pair (x, y) as 0-7 from x and
 * 8-15 from y; the ones between adjacent layouts are their own inverses,
 * so the forward and the inverse share them. */
#define BLOCK_WORDS 2048
#define LANES(a, b, c, d, e, f, g, h) _mm512_set_epi64(h, g, f, e, d, c, b, a)

/* One butterfly per lane on [0, 2q) representatives, results in [0, 2q):
 * Cooley-Tukey (x + wy, x - wy) forward, Gentleman-Sande (x + y, w(x - y))
 * inverse. */
static inline AVX512 void butterfly(__m512i *x, __m512i *y, __m512i w, __m512i wp,
                                    __m512i q, __m512i two_q, int inverse)
{
    if (inverse) {
        const __m512i d = fold(_mm512_sub_epi64(_mm512_add_epi64(*x, two_q), *y), two_q);
        *x = fold(_mm512_add_epi64(*x, *y), two_q);
        *y = mul_shoup32(d, w, wp, q);
    } else {
        const __m512i v = mul_shoup32(*y, w, wp, q);
        *y = fold(_mm512_sub_epi64(_mm512_add_epi64(*x, two_q), v), two_q);
        *x = fold(_mm512_add_epi64(*x, v), two_q);
    }
}

/* Groups [lo, hi) of the stage of span t >= 8, whose twiddles start at w. */
static inline AVX512 void vector_stage(uint64_t *a, size_t t, size_t lo, size_t hi,
                                       const uint64_t *w, __m512i q, __m512i two_q,
                                       int inverse)
{
    for (size_t i = lo; i < hi; i++) {
        const __m512i wi = _mm512_set1_epi64((long long)w[2 * i]);
        const __m512i wp = _mm512_set1_epi64((long long)(w[2 * i + 1] >> 32));
        uint64_t *x = a + 2 * i * t, *y = x + t;
        for (size_t j = 0; j < t; j += 8) {
            __m512i u = _mm512_loadu_si512(x + j), v = _mm512_loadu_si512(y + j);
            butterfly(&u, &v, wi, wp, q, two_q, inverse);
            _mm512_storeu_si512(x + j, u);
            _mm512_storeu_si512(y + j, v);
        }
    }
}

/* The stages of span 4, 2 and 1 on the 16-word chunks [c0, c1) of the row:
 * forward in that order, ending canonical; inverse in the other. */
static inline AVX512 void register_stages(uint64_t *a, size_t n, size_t c0, size_t c1,
                                          const uint64_t *table, __m512i q, __m512i two_q,
                                          int inverse)
{
    const __m512i span4[2] = {LANES(0, 1, 2, 3, 8, 9, 10, 11),
                              LANES(4, 5, 6, 7, 12, 13, 14, 15)};
    const __m512i span2[2] = {LANES(0, 1, 8, 9, 4, 5, 12, 13),
                              LANES(2, 3, 10, 11, 6, 7, 14, 15)};
    const __m512i span1[2] = {LANES(0, 8, 2, 10, 4, 12, 6, 14),
                              LANES(1, 9, 3, 11, 5, 13, 7, 15)};
    const __m512i words[2] = {LANES(0, 2, 4, 6, 8, 10, 12, 14),
                              LANES(1, 3, 5, 7, 9, 11, 13, 15)};
    const __m512i from_span1[2] = {LANES(0, 8, 1, 9, 2, 10, 3, 11),
                                   LANES(4, 12, 5, 13, 6, 14, 7, 15)};
    /* Lane k's twiddle pair among those loaded, at spans 4 and 2. */
    const __m512i pair4 = LANES(0, 0, 0, 0, 2, 2, 2, 2);
    const __m512i pair2 = LANES(0, 0, 2, 2, 4, 4, 6, 6);
    const __m512i one = _mm512_set1_epi64(1);
#define PERMUTE(x, y, index)                                  \
    do {                                                      \
        const __m512i x_ = _mm512_permutex2var_epi64(x, index[0], y); \
        y = _mm512_permutex2var_epi64(x, index[1], y);        \
        x = x_;                                               \
    } while (0)
    for (size_t c = c0; c < c1; c++) {
        uint64_t *p = a + 16 * c;
        /* The twiddle pairs of this chunk's 2, 4 and 8 groups. */
        const uint64_t *w4 = table + 2 * (n / 8 + 2 * c);
        const uint64_t *w2 = table + 2 * (n / 4 + 4 * c);
        const uint64_t *w1 = table + 2 * (n / 2 + 8 * c);
        const __m512i t4 = _mm512_maskz_loadu_epi64(0x0F, w4), t2 = _mm512_loadu_si512(w2);
        const __m512i t1a = _mm512_loadu_si512(w1), t1b = _mm512_loadu_si512(w1 + 8);
        const __m512i w4v = _mm512_permutexvar_epi64(pair4, t4);
        const __m512i w4p = _mm512_srli_epi64(
            _mm512_permutexvar_epi64(_mm512_add_epi64(pair4, one), t4), 32);
        const __m512i w2v = _mm512_permutexvar_epi64(pair2, t2);
        const __m512i w2p = _mm512_srli_epi64(
            _mm512_permutexvar_epi64(_mm512_add_epi64(pair2, one), t2), 32);
        const __m512i w1v = _mm512_permutex2var_epi64(t1a, words[0], t1b);
        const __m512i w1p = _mm512_srli_epi64(
            _mm512_permutex2var_epi64(t1a, words[1], t1b), 32);
        __m512i x = _mm512_loadu_si512(p), y = _mm512_loadu_si512(p + 8);
        if (inverse) {
            PERMUTE(x, y, words);
            butterfly(&x, &y, w1v, w1p, q, two_q, 1);
            PERMUTE(x, y, span1);
            butterfly(&x, &y, w2v, w2p, q, two_q, 1);
            PERMUTE(x, y, span2);
            butterfly(&x, &y, w4v, w4p, q, two_q, 1);
            PERMUTE(x, y, span4);
        } else {
            PERMUTE(x, y, span4);
            butterfly(&x, &y, w4v, w4p, q, two_q, 0);
            PERMUTE(x, y, span2);
            butterfly(&x, &y, w2v, w2p, q, two_q, 0);
            PERMUTE(x, y, span1);
            butterfly(&x, &y, w1v, w1p, q, two_q, 0);
            x = fold(x, q);
            y = fold(y, q);
            PERMUTE(x, y, from_span1);
        }
        _mm512_storeu_si512(p, x);
        _mm512_storeu_si512(p + 8, y);
    }
#undef PERMUTE
}

/* The stage of span t reads its twiddles from table + n / t (2 m words
 * in, for its m = n / 2t groups). */
static AVX512 void forward_row_avx512(uint64_t *a, size_t n, uint64_t q64,
                                      const uint64_t *table)
{
    const __m512i q = _mm512_set1_epi64((long long)q64);
    const __m512i two_q = _mm512_set1_epi64((long long)(2 * q64));
    const size_t block = n < BLOCK_WORDS ? n : BLOCK_WORDS;
    for (size_t j = 0; j < n; j += 8)
        _mm512_storeu_si512(a + j, fold(_mm512_loadu_si512(a + j), two_q));
    for (size_t t = n / 2; t >= block; t /= 2)
        vector_stage(a, t, 0, n / (2 * t), table + n / t, q, two_q, 0);
    for (size_t b = 0; b < n; b += block) {
        for (size_t t = block / 2; t >= 8; t /= 2)
            vector_stage(a, t, b / (2 * t), (b + block) / (2 * t), table + n / t,
                         q, two_q, 0);
        register_stages(a, n, b / 16, (b + block) / 16, table, q, two_q, 0);
    }
}

static AVX512 void inverse_row_avx512(uint64_t *a, size_t n, uint64_t q64,
                                      const uint64_t *table)
{
    const __m512i q = _mm512_set1_epi64((long long)q64);
    const __m512i two_q = _mm512_set1_epi64((long long)(2 * q64));
    const __m512i n_inv = _mm512_set1_epi64((long long)table[0]);
    const __m512i n_inv_p = _mm512_set1_epi64((long long)(table[1] >> 32));
    const size_t block = n < BLOCK_WORDS ? n : BLOCK_WORDS;
    for (size_t b = 0; b < n; b += block) {
        register_stages(a, n, b / 16, (b + block) / 16, table, q, two_q, 1);
        for (size_t t = 8; t < block; t *= 2)
            vector_stage(a, t, b / (2 * t), (b + block) / (2 * t), table + n / t,
                         q, two_q, 1);
    }
    for (size_t t = block; t < n; t *= 2)
        vector_stage(a, t, 0, n / (2 * t), table + n / t, q, two_q, 1);
    for (size_t j = 0; j < n; j += 8) {
        const __m512i x = mul_shoup32(_mm512_loadu_si512(a + j), n_inv, n_inv_p, q);
        _mm512_storeu_si512(a + j, fold(x, q));
    }
}
#endif

void ntt(uint64_t *a, size_t rows, size_t n, const uint64_t *q,
         const uint64_t *const *tables, int inverse)
{
#if defined(__x86_64__)
    const int vector = n >= 16 && vector_isa();
#endif
    for (size_t r = 0; r < rows; r++) {
        uint64_t *row = a + r * n;
#if defined(__x86_64__)
        if (vector && q[r] < VECTOR_LIMIT) {
            (inverse ? inverse_row_avx512 : forward_row_avx512)(row, n, q[r], tables[r]);
            continue;
        }
#endif
        (inverse ? inverse_row : forward_row)(row, n, q[r], tables[r]);
    }
}
