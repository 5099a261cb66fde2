/* NumPy's pairwise summation, the one copy shared by the compiled passes
   (wirelength.c, density.c).  Not part of the cffi cdef: a static
   function, so each translation unit inlines its own. */

#ifndef REPRO_PAIRWISE_H
#define REPRO_PAIRWISE_H

#include <stdint.h>
#include <string.h>

/* Two adjacent accumulators of NumPy's eight, as one SSE2 register: each
   lane runs the scalar additions of its accumulator, so the bits are the
   scalar ones. */
typedef double pairwise_v2d __attribute__((vector_size(16)));

static inline pairwise_v2d pairwise_load(const double *a)
{
    pairwise_v2d v;
    memcpy(&v, a, sizeof v);
    return v;
}

/* NumPy's pairwise_sum of a[0..n), or of a[i] * m[i] with ``m``: a plain
   sum from -0.0 below 8 terms, 8 accumulators up to 128, two halves (cut
   at a multiple of 8) above.  np.sum of a contiguous array of any shape
   is this sum over all its elements. */
static double pairwise_sum(const double *a, const double *m, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += m ? a[i] * m[i] : a[i];
        return res;
    }
    if (n <= 128) {
        pairwise_v2d r[4];
        int64_t i, end = n - (n % 8);
        if (m) {
            for (int j = 0; j < 4; j++)
                r[j] = pairwise_load(a + 2 * j) * pairwise_load(m + 2 * j);
            for (i = 8; i < end; i += 8)
                for (int j = 0; j < 4; j++)
                    r[j] += pairwise_load(a + i + 2 * j) * pairwise_load(m + i + 2 * j);
        } else {
            for (int j = 0; j < 4; j++)
                r[j] = pairwise_load(a + 2 * j);
            for (i = 8; i < end; i += 8)
                for (int j = 0; j < 4; j++)
                    r[j] += pairwise_load(a + i + 2 * j);
        }
        double res = ((r[0][0] + r[0][1]) + (r[1][0] + r[1][1])) +
                     ((r[2][0] + r[2][1]) + (r[3][0] + r[3][1]));
        for (; i < n; i++)
            res += m ? a[i] * m[i] : a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, m, n2) + pairwise_sum(a + n2, m ? m + n2 : 0, n - n2);
}

#endif
