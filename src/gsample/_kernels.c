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
 * entries, not 2n, and the lower half never enters the cache; those
 * strided entries are prefetched PREFETCH_ROWS rows ahead.
 *
 * The pivot is the first largest of the cached per-row maxima, read off
 * the root of a tournament tree over them; each changed row maximum
 * costs an O(log n) fix.  A row above q changes only in columns p and
 * q, so its cached maximum is settled from those two entries, and the
 * row is rescanned only when they cannot decide.  Rows p and q get their
 * maxima in the loops that rotate them.
 */
#include <math.h>
#include <stdint.h>

/* Rows ahead at which the strided column loops prefetch. */
#define PREFETCH_ROWS 16

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

/* The pivot tree is a tournament over best_val: leaf m + i holds row i
 * (-1 past the last row), node k the winner of nodes 2k and 2k + 1, the
 * root (node 1) the pivot row.  The larger value wins and a tie goes to
 * the left, so the root is the first row of largest best_val, as in a
 * linear scan with a strict comparison. */
static int64_t winner(const int64_t *tree, const double *best_val,
                      int64_t node)
{
    int64_t l = tree[2 * node], r = tree[2 * node + 1];
    return r >= 0 && best_val[r] > best_val[l] ? r : l;
}

/* Replays the matches on the path of `row` after its best_val changed;
 * stops at the first node whose winner and its value stand. */
static void tree_fix(int64_t *tree, int64_t m, const double *best_val,
                     int64_t row)
{
    for (int64_t node = (m + row) >> 1; node >= 1; node >>= 1) {
        int64_t win = winner(tree, best_val, node);
        if (win == tree[node] && win != row)
            break;
        tree[node] = win;
    }
}

/* Settles the cached first maximum of row i of the upper triangle after
 * a rotation in (p, q) changed its entries in columns p and q, whose new
 * magnitudes are a and b (a = -1 when column p is left of the row).  The
 * other columns are untouched: they peak at the old best_val, first in
 * the old best_col if that column is untouched too, and otherwise only
 * right of it.  Rescans only when the rotated column fell and nothing
 * known beats the untouched columns for sure. */
static void settle(const double *w, int64_t n, int64_t i, int64_t p,
                   int64_t q, double a, double b, int64_t *best_col,
                   double *best_val)
{
    int64_t col = best_col[i];
    double val = best_val[i];
    if (col == p || col == q) {
        double mine = col == p ? a : b, other = col == p ? b : a;
        if (mine >= val) {
            /* still at least every untouched entry, and left of its ties */
            col = b > a ? q : p;
            val = b > a ? b : a;
        } else if (other > val || (other == val && col == q)) {
            /* the other column beats the untouched ones, or ties them
             * from the left: p < q < any untouched tie */
            col = col == p ? q : p;
            val = other;
        } else {
            /* the row's peak may sit in an untouched column, or tie at q
             * right of an untouched entry between p and q */
            row_max(w, n, i, best_col, best_val);
            return;
        }
    } else {
        if (a > val || (a == val && p < col)) {
            col = p;
            val = a;
        }
        if (b > val || (b == val && q < col)) {
            col = q;
            val = b;
        }
    }
    best_col[i] = col;
    best_val[i] = val;
}

/* Up to `budget` greedy rotations of the symmetric row-major n x n
 * matrix w, in place.  Only the diagonal and the strict upper triangle
 * (i < j) are read or written: w[q, p] is read as w[p, q], and the lower
 * triangle is left stale on return.  best_col / best_val (n - 1 entries)
 * cache the per-row maxima of the strict upper triangle; `init` fills
 * them, and a later call with init = 0 continues the same sweep.  tree
 * holds the pivot tree, 2m entries for the smallest power of two
 * m >= n - 1; it is rebuilt from best_val on every call.  Rotation k is
 * written to planes[2k], planes[2k + 1] and thetas[k].  Returns the
 * number of rotations made, which is short of `budget` only when every
 * off-diagonal magnitude is at most tol. */
int64_t greedy_jacobi_sweep(double *w, int64_t n, int64_t *best_col,
                            double *best_val, int64_t *tree, int64_t budget,
                            double tol, int init, int64_t *planes,
                            double *thetas)
{
    int64_t rows = n - 1, m = 1;
    while (m < rows)
        m <<= 1;
    if (init)
        for (int64_t i = 0; i < rows; i++)
            row_max(w, n, i, best_col, best_val);
    for (int64_t i = 0; i < m; i++)
        tree[m + i] = i < rows ? i : -1;
    for (int64_t node = m - 1; node >= 1; node--)
        tree[node] = winner(tree, best_val, node);
    int64_t k = 0;
    for (; k < budget; k++) {
        int64_t p = tree[1];
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
         * j < q changes only in columns p and q, so its cached maximum
         * needs settling only when it sat in either column or an entry
         * there may have risen to it. */
        for (int64_t j = 0; j < p; j++) {
            if (j + PREFETCH_ROWS < p) {
                __builtin_prefetch(w + (j + PREFETCH_ROWS) * n + p, 1);
                __builtin_prefetch(w + (j + PREFETCH_ROWS) * n + q, 1);
            }
            double *a = w + j * n + p, *b = w + j * n + q;
            double x = *a, y = *b;
            *a = c * x - s * y;
            *b = s * x + c * y;
            double fa = fabs(*a), fb = fabs(*b), old = best_val[j];
            if (best_col[j] == p || best_col[j] == q || fa >= old
                    || fb >= old) {
                settle(w, n, j, p, q, fa, fb, best_col, best_val);
                if (best_val[j] != old)
                    tree_fix(tree, m, best_val, j);
            }
        }
        /* rows p and q get their new maxima from the loops that write
         * them: ties go to the first column, and w[p, q] becomes 0 */
        int64_t p_col = p + 1, q_col = q + 1;
        double p_val = -1.0, q_val = -1.0;
        for (int64_t j = p + 1; j < q; j++) {
            if (j + PREFETCH_ROWS < q)
                __builtin_prefetch(w + (j + PREFETCH_ROWS) * n + q, 1);
            double *b = w + j * n + q;
            double x = wp[j], y = *b;
            wp[j] = c * x - s * y;
            *b = s * x + c * y;
            double fp = fabs(wp[j]), fb = fabs(*b), old = best_val[j];
            if (fp > p_val) {
                p_val = fp;
                p_col = j;
            }
            if (best_col[j] == q || fb >= old) {
                settle(w, n, j, p, q, -1.0, fb, best_col, best_val);
                if (best_val[j] != old)
                    tree_fix(tree, m, best_val, j);
            }
        }
        if (p_val < 0.0) {
            /* no middle columns: column q, zeroed below, comes first */
            p_val = 0.0;
            p_col = q;
        }
        for (int64_t j = q + 1; j < n; j++) {
            double x = wp[j], y = wq[j];
            wp[j] = c * x - s * y;
            wq[j] = s * x + c * y;
            double fp = fabs(wp[j]), fq = fabs(wq[j]);
            if (fp > p_val) {
                p_val = fp;
                p_col = j;
            }
            if (fq > q_val) {
                q_val = fq;
                q_col = j;
            }
        }
        wp[p] = c * pp - s * qp;
        wq[q] = s * pq + c * qq;
        wp[q] = 0.0;
        planes[2 * k] = p;
        planes[2 * k + 1] = q;
        thetas[k] = theta;
        /* rows past q keep their upper triangle and their maxima */
        best_col[p] = p_col;
        best_val[p] = p_val;
        tree_fix(tree, m, best_val, p);
        if (q < rows) {
            best_col[q] = q_col;
            best_val[q] = q_val;
            tree_fix(tree, m, best_val, q);
        }
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
