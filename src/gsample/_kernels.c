/* Compiled loops of gsample.filters: the greedy Jacobi sweep and the
 * accumulation of its rotations.
 *
 * The arithmetic follows the numpy references in gsample.oracle term by
 * term, so the outputs are bit-identical to theirs.  That needs every
 * product rounded on its own: build with -ffp-contract=off and without
 * -ffast-math.  Nothing here allocates or keeps state; the caller owns
 * every buffer, so concurrent calls on different buffers are safe.
 *
 * The sweep reads and writes only the diagonal and the strict upper
 * triangle (i < j) of its symmetric matrix and leaves the lower triangle
 * stale on return.  Each rotation then touches about p + q strided
 * entries, not 2n, and the lower half never enters the cache.
 */
#include <math.h>
#include <stdint.h>

/* Fresh maximum of |w[i, i+1:]|; ties go to the smallest column.
 *
 * Two passes: four running maxima (plus the tail) find the maximum
 * without a data-dependent branch, then the first column whose magnitude
 * equals it is the answer.  Every lane starts at |w[i, i+1]|, so a NaN
 * there makes the maximum NaN and a NaN elsewhere is skipped, as in a
 * plain scan with a strict comparison.  A NaN maximum equals no entry:
 * the second pass stops at the end of the row and the first column
 * stands. */
static void row_max(const double *w, int64_t n, int64_t i,
                    int64_t *best_col, double *best_val)
{
    const double *row = w + i * n;
    double m0 = fabs(row[i + 1]), m1 = m0, m2 = m0, m3 = m0;
    int64_t j = i + 1;
    for (; j + 4 <= n; j += 4) {
        double a0 = fabs(row[j]), a1 = fabs(row[j + 1]);
        double a2 = fabs(row[j + 2]), a3 = fabs(row[j + 3]);
        m0 = a0 > m0 ? a0 : m0;
        m1 = a1 > m1 ? a1 : m1;
        m2 = a2 > m2 ? a2 : m2;
        m3 = a3 > m3 ? a3 : m3;
    }
    for (; j < n; j++) {
        double a = fabs(row[j]);
        m0 = a > m0 ? a : m0;
    }
    m0 = m1 > m0 ? m1 : m0;
    m2 = m3 > m2 ? m3 : m2;
    double val = m2 > m0 ? m2 : m0;
    int64_t col = i + 1;
    for (j = i + 1; j < n; j++)
        if (fabs(row[j]) == val) {
            col = j;
            break;
        }
    best_col[i] = col;
    best_val[i] = val;
}

/* Up to `budget` greedy rotations of the symmetric row-major n x n
 * matrix w, in place.  Only the diagonal and the strict upper triangle
 * (i < j) are read or written: w[q, p] is read as w[p, q], and the lower
 * triangle is left stale on return.  best_col / best_val (n - 1 entries)
 * cache the per-row maxima of the strict upper triangle; `init` fills
 * them, and a later call with init = 0 continues the same sweep.
 * Rotation k is written to planes[2k], planes[2k + 1] and thetas[k].
 * Returns the number of rotations made, which is short of `budget` only
 * when every off-diagonal magnitude is at most tol. */
int64_t greedy_jacobi_sweep(double *w, int64_t n, int64_t *best_col,
                            double *best_val, int64_t budget, double tol,
                            int init, int64_t *planes, double *thetas)
{
    if (init)
        for (int64_t i = 0; i < n - 1; i++)
            row_max(w, n, i, best_col, best_val);
    int64_t k = 0;
    for (; k < budget; k++) {
        int64_t p = 0;
        for (int64_t i = 1; i < n - 1; i++)
            if (best_val[i] > best_val[p])
                p = i;
        if (best_val[p] <= tol)
            break;
        int64_t q = best_col[p];
        double *wp = w + p * n, *wq = w + q * n;
        double theta = 0.5 * atan2(2.0 * wp[q], wq[q] - wp[p]);
        double c = cos(theta), s = sin(theta);
        /* the (p, q) block: columns first, then rows, as the reference */
        double pp = c * wp[p] - s * wp[q], pq = s * wp[p] + c * wp[q];
        double qp = c * wp[q] - s * wq[q], qq = s * wp[q] + c * wq[q];
        /* the pair (w[p, j], w[q, j]) of every other column j, each entry
         * taken from the upper triangle: both from column j below row p,
         * row p and column j between p and q, both rows right of q.  Row
         * j < q changes only in columns p and q, so its cached maximum is
         * checked as soon as they are written: it is stale when it sat in
         * either column or an entry there may have risen to it. */
        for (int64_t j = 0; j < p; j++) {
            double *a = w + j * n + p, *b = w + j * n + q;
            double x = *a, y = *b;
            *a = c * x - s * y;
            *b = s * x + c * y;
            if (best_col[j] == p || best_col[j] == q
                    || fabs(*a) >= best_val[j] || fabs(*b) >= best_val[j])
                row_max(w, n, j, best_col, best_val);
        }
        for (int64_t j = p + 1; j < q; j++) {
            double *b = w + j * n + q;
            double x = wp[j], y = *b;
            wp[j] = c * x - s * y;
            *b = s * x + c * y;
            if (best_col[j] == q || fabs(*b) >= best_val[j])
                row_max(w, n, j, best_col, best_val);
        }
        for (int64_t j = q + 1; j < n; j++) {
            double x = wp[j], y = wq[j];
            wp[j] = c * x - s * y;
            wq[j] = s * x + c * y;
        }
        wp[p] = c * pp - s * qp;
        wq[q] = s * pq + c * qq;
        wp[q] = 0.0;
        planes[2 * k] = p;
        planes[2 * k + 1] = q;
        thetas[k] = theta;
        /* rows p and q are always rescanned; the upper triangle of a row
         * past q is untouched */
        row_max(w, n, p, best_col, best_val);
        if (q < n - 1)
            row_max(w, n, q, best_col, best_val);
    }
    return k;
}

/* Applies `count` rotations in order to the rows of the row-major matrix
 * qt, whose rows are `width` entries long: the transpose of
 * right-multiplying each rotation's columns. */
void rotate_rows(double *qt, int64_t width, int64_t count,
                 const int64_t *planes, const double *thetas)
{
    for (int64_t k = 0; k < count; k++) {
        double c = cos(thetas[k]), s = sin(thetas[k]);
        double *rp = qt + planes[2 * k] * width;
        double *rq = qt + planes[2 * k + 1] * width;
        for (int64_t j = 0; j < width; j++) {
            double a = rp[j], b = rq[j];
            rp[j] = c * a - s * b;
            rq[j] = s * a + c * b;
        }
    }
}
