/* Compiled loops of gsample: the greedy Jacobi sweep and the
 * accumulation of its rotations (gsample.filters), the k-nearest-neighbour
 * scan of the sensor graph and the connectivity check of every random
 * graph and the diagonal of its Laplacian (gsample.graphs), and the
 * greedy selection passes of agod, fagod, dopt and aopt
 * (gsample.selection).  The agod and fagod argmin scans are static:
 * only greedy_pass runs them.
 * seed_state hashes a seed as numpy's SeedSequence does (gsample.rng),
 * and leverage_draw makes the picks of the leverage-weighted random
 * selection (gsample.selection).
 *
 * The arithmetic follows the numpy code each kernel replaces term by
 * term, so the outputs are bit-identical to it: the numpy references in
 * gsample.oracle for the sweep and np.argsort of the distance matrix for
 * the neighbours.  That needs every product rounded on its own: build
 * with -ffp-contract=off and without -ffast-math.  The one exception is
 * the greedy pass, whose numpy reference is the loaded-Gram states of
 * gsample.oracle: it rounds each entry as they do (U -= h w^T included,
 * a product and a difference each rounded on its own, where BLAS's dger
 * may fuse them), but its dot products, which numpy hands to BLAS, run
 * in a fixed order of their own, so its traces match the states only to
 * their last bits.
 * Nothing here allocates or keeps state from call to call; the caller
 * owns every buffer, so concurrent calls on different buffers are safe.
 *
 * The sweep keeps its symmetric matrix as two buffers: the strict upper
 * triangle (i < j), packed row by row as LAPACK's packed routines store
 * it, and the diagonal.  Each rotation touches about p + q strided
 * entries, not 2n, and no lower triangle is stored at all; the strided
 * entries of a triangle too large for the cache are prefetched
 * PREFETCH_ROWS rows ahead.
 *
 * The pivot is the first largest of the cached per-row maxima, read off
 * the root of a tournament tree over them; each changed row maximum
 * costs an O(log n) fix.  A row above q changes only in columns p and
 * q, so its cached maximum is settled from those two entries, and the
 * row is rescanned only when they cannot decide.  Rows p and q get their
 * maxima in the loops that rotate them.
 *
 * The neighbour and argmin scans exit early: a node farther than the
 * k + 1 kept ones is dropped on its squared distance, and a candidate
 * whose running maximum already reaches the best objective so far is
 * dropped before its other coordinates are read.  Both visit nodes in
 * ascending order, so a dropped tie always loses to a smaller index.
 */
#include <math.h>
#include <stdint.h>

/* Rows ahead at which the strided column loops prefetch, once the
 * packed triangle holds more than PREFETCH_MIN_ENTRIES (1 MiB).  On a
 * box with 2 MiB of L2 per core, prefetching slowed the sweep by about
 * 4% at n = 200 (160 KiB), broke even at n = 400 and saved 4% at n = 600
 * (1.4 MiB) and 13% at n = 800. */
#define PREFETCH_ROWS 16
#define PREFETCH_MIN_ENTRIES (1 << 17)

/* Fresh maximum of the n - i - 1 magnitudes |row[0]|, |row[1]|, ..., the
 * strict upper part of row i, which starts in column i + 1; ties go to
 * the smallest column.
 *
 * Two passes: four running maxima (plus the tail) find the maximum
 * without a data-dependent branch, then the first column whose magnitude
 * equals it is the answer.  Every lane starts at |row[0]|, so a NaN
 * there makes the maximum NaN and a NaN elsewhere is skipped, as in a
 * plain scan with a strict comparison.  A NaN maximum equals no entry:
 * the second pass stops at the end of the row and the first column
 * stands. */
static void row_max(const double *row, int64_t n, int64_t i,
                    int64_t *best_col, double *best_val)
{
    int64_t len = n - i - 1;
    double m0 = fabs(row[0]), m1 = m0, m2 = m0, m3 = m0;
    int64_t k = 0;
    for (; k + 4 <= len; k += 4) {
        double a0 = fabs(row[k]), a1 = fabs(row[k + 1]);
        double a2 = fabs(row[k + 2]), a3 = fabs(row[k + 3]);
        m0 = a0 > m0 ? a0 : m0;
        m1 = a1 > m1 ? a1 : m1;
        m2 = a2 > m2 ? a2 : m2;
        m3 = a3 > m3 ? a3 : m3;
    }
    for (; k < len; k++) {
        double a = fabs(row[k]);
        m0 = a > m0 ? a : m0;
    }
    m0 = m1 > m0 ? m1 : m0;
    m2 = m3 > m2 ? m3 : m2;
    double val = m2 > m0 ? m2 : m0;
    int64_t col = 0;
    for (k = 0; k < len; k++)
        if (fabs(row[k]) == val) {
            col = k;
            break;
        }
    best_col[i] = i + 1 + col;
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

/* Settles the cached first maximum of row i of the upper triangle, whose
 * packed entries start at row, after a rotation in (p, q) changed its
 * entries in columns p and q, whose new magnitudes are a and b (a = -1
 * when column p is left of the row).  The other columns are untouched:
 * they peak at the old best_val, first in the old best_col if that
 * column is untouched too, and otherwise only right of it.  Rescans only
 * when the rotated column fell and nothing known beats the untouched
 * columns for sure. */
static void settle(const double *row, int64_t n, int64_t i, int64_t p,
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
            row_max(row, n, i, best_col, best_val);
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

/* Up to `budget` greedy rotations, in place, of the symmetric n x n
 * matrix W held as its strict upper triangle u and its diagonal d.  u
 * holds W[i, i+1:] for i = 0 .. n - 2 one after the other, n (n - 1) / 2
 * entries, so row i starts at offset i (2n - i - 1) / 2; W[q, p] is read
 * as W[p, q].  off (n - 1 entries) is filled with off[i] = that offset
 * minus i + 1, so that W[i, j] is u[off[i] + j] for j > i.
 * best_col / best_val (n - 1 entries) cache the per-row maxima of the
 * strict upper triangle, and tree, 2m entries for the smallest power
 * of two m >= n - 1, the pivot tree over them.  All four are scratch
 * that every call fills from u; the cached maxima are exact, so a sweep
 * split into calls makes the rotations of one.  Rotation k is written
 * to planes[2k], planes[2k + 1] and thetas[k].  Returns the number of
 * rotations made, which is short of `budget` only when every
 * off-diagonal magnitude is at most tol. */
int64_t greedy_jacobi_sweep(double *u, double *d, int64_t n, int64_t *off,
                            int64_t *best_col, double *best_val,
                            int64_t *tree, int64_t budget, double tol,
                            int64_t *planes, double *thetas)
{
    int64_t rows = n - 1, m = 1;
    while (m < rows)
        m <<= 1;
    for (int64_t i = 0; i < rows; i++) {
        off[i] = i * (2 * n - i - 1) / 2 - (i + 1);
        row_max(u + (off[i] + i + 1), n, i, best_col, best_val);
    }
    for (int64_t i = 0; i < m; i++)
        tree[m + i] = i < rows ? i : -1;
    for (int64_t node = m - 1; node >= 1; node--)
        tree[node] = winner(tree, best_val, node);
    /* a triangle that stays in cache is left to the hardware's own
     * prefetch: no row lies n rows ahead */
    int64_t ahead = rows * n / 2 > PREFETCH_MIN_ENTRIES ? PREFETCH_ROWS : n;
    int64_t k = 0;
    for (; k < budget; k++) {
        int64_t p = tree[1];
        if (best_val[p] <= tol)
            break;
        int64_t q = best_col[p];
        /* rows p and q of the upper triangle, indexed by column; row q
         * is empty when q = n - 1 */
        int64_t op = off[p], oq = q < rows ? off[q] : 0;
        double w_pq = u[op + q];
        double theta = 0.5 * atan2(2.0 * w_pq, d[q] - d[p]);
        double c = cos(theta), s = sin(theta);
        /* the (p, q) block: columns first, then rows, as the reference */
        double pp = c * d[p] - s * w_pq, pq = s * d[p] + c * w_pq;
        double qp = c * w_pq - s * d[q], qq = s * w_pq + c * d[q];
        /* the pair (W[p, j], W[q, j]) of every other column j, each entry
         * taken from the upper triangle: both from column j below row p,
         * row p and column j between p and q, both rows right of q.  Row
         * j < q changes only in columns p and q, so its cached maximum
         * needs settling only when it sat in either column or an entry
         * there may have risen to it. */
        for (int64_t j = 0; j < p; j++) {
            if (j + ahead < p) {
                __builtin_prefetch(u + (off[j + ahead] + p), 1);
                __builtin_prefetch(u + (off[j + ahead] + q), 1);
            }
            double *a = u + (off[j] + p), *b = u + (off[j] + q);
            double x = *a, y = *b;
            *a = c * x - s * y;
            *b = s * x + c * y;
            double fa = fabs(*a), fb = fabs(*b), old = best_val[j];
            if (best_col[j] == p || best_col[j] == q || fa >= old
                    || fb >= old) {
                settle(u + (off[j] + j + 1), n, j, p, q, fa, fb, best_col,
                       best_val);
                if (best_val[j] != old)
                    tree_fix(tree, m, best_val, j);
            }
        }
        /* rows p and q get their new maxima from the loops that write
         * them: ties go to the first column, and W[p, q] becomes 0 */
        int64_t p_col = p + 1, q_col = q + 1;
        double p_val = -1.0, q_val = -1.0;
        for (int64_t j = p + 1; j < q; j++) {
            if (j + ahead < q)
                __builtin_prefetch(u + (off[j + ahead] + q), 1);
            double *a = u + (op + j), *b = u + (off[j] + q);
            double x = *a, y = *b;
            *a = c * x - s * y;
            *b = s * x + c * y;
            double fp = fabs(*a), fb = fabs(*b), old = best_val[j];
            if (fp > p_val) {
                p_val = fp;
                p_col = j;
            }
            if (best_col[j] == q || fb >= old) {
                settle(u + (off[j] + j + 1), n, j, p, q, -1.0, fb, best_col,
                       best_val);
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
            double *a = u + (op + j), *b = u + (oq + j);
            double x = *a, y = *b;
            *a = c * x - s * y;
            *b = s * x + c * y;
            double fp = fabs(*a), fq = fabs(*b);
            if (fp > p_val) {
                p_val = fp;
                p_col = j;
            }
            if (fq > q_val) {
                q_val = fq;
                q_col = j;
            }
        }
        d[p] = c * pp - s * qp;
        d[q] = s * pq + c * qq;
        u[op + q] = 0.0;
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

/* The k1 = k + 1 nearest nodes of each of the n points pos[2i],
 * pos[2i + 1], itself included, as np.argsort(dist, axis=1,
 * kind="stable")[:, :k1] of the distances sqrt(dx*dx + dy*dy) with
 * dx = x_i - x_j: ordered by distance, ties by index.  Row i of near and
 * near_dist (n x k1) gets the nodes and their distances.  sq (k1
 * entries) is scratch for the squared distances of the kept nodes.
 *
 * Nodes come in ascending order, so a node at the distance of the last
 * kept one loses the tie; one whose squared distance is at least that
 * node's is dropped before its sqrt. */
void knn(const double *pos, int64_t n, int64_t k1, int64_t *near,
         double *near_dist, double *sq)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t *idx = near + i * k1;
        double *dist = near_dist + i * k1;
        double xi = pos[2 * i], yi = pos[2 * i + 1];
        double worst = INFINITY;
        int64_t kept = 0;
        for (int64_t j = 0; j < n; j++) {
            double dx = xi - pos[2 * j], dy = yi - pos[2 * j + 1];
            double d2 = dx * dx + dy * dy;
            if (d2 >= worst)
                continue;
            double d = sqrt(d2);
            if (kept < k1)
                kept++;
            else if (d >= dist[k1 - 1])
                continue;
            /* insert after every kept node at most as far */
            int64_t t = kept - 1;
            for (; t > 0 && dist[t - 1] > d; t--) {
                dist[t] = dist[t - 1];
                idx[t] = idx[t - 1];
                sq[t] = sq[t - 1];
            }
            dist[t] = d;
            idx[t] = j;
            sq[t] = d2;
            if (kept == k1)
                worst = sq[k1 - 1];
        }
    }
}

/* The root of node i's tree in the union-find forest parent, halving the
 * path on the way: each visited node is linked to its grandparent. */
static int64_t find_root(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

/* The number of connected components of the undirected graph on n nodes
 * with the m edges (rows[k], cols[k]), each listed in one or both
 * directions: a union-find over the edge list, the larger root linked
 * under the smaller.  parent (n entries) is scratch. */
int64_t components(int64_t n, const int64_t *rows, const int64_t *cols,
                   int64_t m, int64_t *parent)
{
    int64_t count = n;
    for (int64_t i = 0; i < n; i++)
        parent[i] = i;
    for (int64_t k = 0; k < m; k++) {
        int64_t a = find_root(parent, rows[k]);
        int64_t b = find_root(parent, cols[k]);
        if (a == b)
            continue;
        if (a < b)
            parent[b] = a;
        else
            parent[a] = b;
        count--;
    }
    return count;
}

/* The K coordinates in descending order of diag, ties by index, as
 * np.argsort(-diag, kind="stable"): an insertion sort, O(K^2) at worst,
 * which is below the O(n K) scan it orders since K <= n. */
static void descending(const double *diag, int64_t K, int64_t *order)
{
    for (int64_t k = 0; k < K; k++) {
        int64_t t = k;
        for (; t > 0 && diag[order[t - 1]] < diag[k]; t--)
            order[t] = order[t - 1];
        order[t] = k;
    }
}

/* The agod step: argmin over the free nodes j (taken[j] == 0) of
 * max_k (diag[k] - u[j, k]^2 / (1 + g[j])), each term rounded as numpy
 * rounds diag - u ** 2 / (1 + g)[:, None].  u is row-major n x K; order
 * (K entries) is scratch.  Coordinates go in descending order of diag,
 * where the maximum usually sits, and a candidate is dropped once its
 * running maximum reaches the best so far.  The winner's maximum, read in
 * full, goes to *value and its index is returned; ties go to the smallest
 * index.  Returns -1 when a diagonal entry, a free node's 1 + g[j] or a
 * term read is not finite, or no node is free. */
static int64_t agod_argmin(const double *u, const double *g,
                           const double *diag, const uint8_t *taken,
                           int64_t n, int64_t K, int64_t *order,
                           double *value)
{
    for (int64_t k = 0; k < K; k++)
        if (!isfinite(diag[k]))
            return -1;
    descending(diag, K, order);
    int64_t best = -1;
    double best_val = INFINITY;
    for (int64_t j = 0; j < n; j++) {
        if (taken[j])
            continue;
        double s = 1.0 + g[j];
        if (!isfinite(s))
            return -1;
        const double *row = u + j * K;
        double run = -INFINITY;
        int64_t t = 0;
        for (; t < K; t++) {
            int64_t k = order[t];
            double c = diag[k] - row[k] * row[k] / s;
            if (!isfinite(c))
                return -1;
            if (c > run) {
                run = c;
                if (run >= best_val)
                    break;
            }
        }
        if (t == K) {
            best = j;
            best_val = run;
        }
    }
    *value = best_val;
    return best;
}

/* The factored fagod step: argmin over the free nodes j of
 * max(o_j, max_i (b[i, j]^2 o_j + d[i])) with o_j = 1 / (mu (1 + a[j])),
 * each term rounded as numpy rounds np.square(b) * o + d[:, None].  b is
 * row-major with n columns, of which the first m rows are read; order (m
 * entries) is scratch.  Rows go in descending order of d, and a
 * candidate is dropped once its running maximum reaches the best so far.
 * Returns the winner, its objective in *value, as agod_argmin does; -1
 * when an entry of d, a free node's a[j] or o_j or a term read is not
 * finite, or no node is free.  An infinite a[j] gives a finite o_j = 0,
 * so a[j] is checked on its own. */
static int64_t fagod_argmin(const double *b, const double *d,
                            const double *a, const uint8_t *taken,
                            int64_t n, int64_t m, double mu,
                            int64_t *order, double *value)
{
    for (int64_t i = 0; i < m; i++)
        if (!isfinite(d[i]))
            return -1;
    descending(d, m, order);
    int64_t best = -1;
    double best_val = INFINITY;
    for (int64_t j = 0; j < n; j++) {
        if (taken[j])
            continue;
        double own = 1.0 / (mu * (1.0 + a[j]));
        if (!isfinite(a[j]) || !isfinite(own))
            return -1;
        if (own >= best_val)
            continue;
        double run = own;
        int64_t t = 0;
        for (; t < m; t++) {
            double x = b[order[t] * n + j];
            double c = x * x * own + d[order[t]];
            if (!isfinite(c))
                return -1;
            if (c > run) {
                run = c;
                if (run >= best_val)
                    break;
            }
        }
        if (t == m) {
            best = j;
            best_val = run;
        }
    }
    *value = best_val;
    return best;
}

/* x . y over K entries in a fixed order: four interleaved partial sums,
 * added as (s0 + s1) + (s2 + s3), then the tail in order.  Not the order
 * of a BLAS dot, so its last bits differ from numpy's; the partial sums
 * let the loop vectorise without reassociating. */
static double dot(const double *x, const double *y, int64_t K)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t k = 0;
    for (; k + 4 <= K; k += 4) {
        s0 += x[k] * y[k];
        s1 += x[k + 1] * y[k + 1];
        s2 += x[k + 2] * y[k + 2];
        s3 += x[k + 3] * y[k + 3];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (; k < K; k++)
        s += x[k] * y[k];
    return s;
}

/* The dopt step: the first free node of largest g[j]; -1 when a free
 * node's g[j] is not finite, or no node is free. */
static int64_t largest_gain(const double *g, const uint8_t *taken,
                            int64_t n)
{
    int64_t best = -1;
    for (int64_t j = 0; j < n; j++) {
        if (taken[j])
            continue;
        if (!isfinite(g[j]))
            return -1;
        if (best < 0 || g[j] > g[best])
            best = j;
    }
    return best;
}

/* The aopt step: the first free node j of smallest
 * Tr Z^-1 - nrm[j] / (1 + g[j]), nrm[j] = |u_j|^2, and that value in
 * *value; -1 when a candidate's value is not finite, or no node is
 * free. */
static int64_t smallest_trace(const double *nrm, const double *g,
                              const double *zinv, const uint8_t *taken,
                              int64_t n, int64_t K, double *value)
{
    double tr = 0.0;
    for (int64_t k = 0; k < K; k++)
        tr += zinv[k * K + k];
    int64_t best = -1;
    double best_val = INFINITY;
    for (int64_t j = 0; j < n; j++) {
        if (taken[j])
            continue;
        double c = tr - nrm[j] / (1.0 + g[j]);
        if (!isfinite(c))
            return -1;
        if (c < best_val) {
            best = j;
            best_val = c;
        }
    }
    *value = best_val;
    return best;
}

enum { PASS_AGOD, PASS_FAGOD, PASS_DOPT, PASS_AOPT };

/* M greedy steps of one criterion on the n x K factor V; v, like every
 * matrix here, is row-major.  zinv (K x K), g (n), for agod and aopt u
 * (n x K) and for aopt nrm (n) hold Z^-1, g_j = v_j Z^-1 v_j^T,
 * U = V Z^-1 and |u_j|^2 of the empty selection; the pass updates them
 * in place.  fagod also grows B = V_S Z^-1 V^T in b (M x n) and
 * d = diag (T_SS + mu I)^-1 in d (M).  Buffers a criterion does not use
 * are NULL.  taken (n) starts all zero.  work holds 2K + n + M doubles
 * and order max(K, M) int64s of scratch.  Step t writes its node to
 * picks[t] and its objective to trace[t]; ties go to the smallest index.
 *
 * Each step picks, then updates with node j: w = Z^-1 v_j^T,
 * s = 1 + v_j w, Z^-1 -= w w^T / s, h = V w / s, g -= s h^2; agod and
 * aopt also U -= h w^T, aopt taking |u_i|^2 of each updated row; fagod
 * adds b_ij^2 / (mu s) to d_i, appends 1 / (mu s) to d, updates
 * B -= B_:j h and appends h as its row.  Every entry is rounded as in
 * the numpy states of gsample.oracle, and the dot products run in
 * the fixed order of `dot`, so traces agree with those states to their
 * last bits, not bitwise.  The last step's update is skipped.  Returns
 * M, or the step at which a value read was not finite. */
int64_t greedy_pass(int method, const double *v, int64_t n, int64_t K,
                    double mu, int64_t M, double *zinv, double *g,
                    double *u, double *nrm, double *b, double *d,
                    uint8_t *taken, double *work, int64_t *order,
                    int64_t *picks, double *trace)
{
    double *w = work, *diag = work + K, *hbuf = work + 2 * K;
    double *col = hbuf + n;
    double logdet = (double)K * log(mu);
    for (int64_t t = 0; t < M; t++) {
        int64_t j;
        double value = 0.0;
        if (method == PASS_AGOD) {
            for (int64_t k = 0; k < K; k++)
                diag[k] = zinv[k * K + k];
            j = agod_argmin(u, g, diag, taken, n, K, order, &value);
        } else if (method == PASS_FAGOD) {
            j = fagod_argmin(b, d, g, taken, n, t, mu, order, &value);
        } else if (method == PASS_DOPT) {
            j = largest_gain(g, taken, n);
            if (j >= 0) {
                /* (1/K) ln |Z^-1| after the determinant gain 1 + g_j */
                logdet += log1p(g[j]);
                value = -logdet / (double)K;
            }
        } else {
            j = smallest_trace(nrm, g, zinv, taken, n, K, &value);
        }
        if (j < 0)
            return t;
        picks[t] = j;
        trace[t] = value;
        taken[j] = 1;
        if (t + 1 == M)
            break;

        const double *vj = v + j * K;
        for (int64_t a = 0; a < K; a++)
            w[a] = dot(zinv + a * K, vj, K);
        double s = 1.0 + dot(vj, w, K);
        for (int64_t a = 0; a < K; a++) {
            double *za = zinv + a * K;
            for (int64_t c = 0; c < K; c++)
                za[c] -= w[a] * w[c] / s;
        }
        /* fagod writes h straight into the row of B it appends */
        double *h = b ? b + t * n : hbuf;
        for (int64_t i = 0; i < n; i++) {
            double hi = dot(v + i * K, w, K) / s;
            h[i] = hi;
            g[i] -= s * hi * hi;
            if (u) {
                double *ui = u + i * K;
                for (int64_t k = 0; k < K; k++)
                    ui[k] -= hi * w[k];
                if (nrm)
                    nrm[i] = dot(ui, ui, K);
            }
        }
        if (b) {
            double schur = mu * s;
            for (int64_t i = 0; i < t; i++) {
                col[i] = b[i * n + j];
                d[i] += col[i] * col[i] / schur;
            }
            d[t] = 1.0 / schur;
            for (int64_t i = 0; i < t; i++) {
                double *bi = b + i * n, ci = col[i];
                for (int64_t c = 0; c < n; c++)
                    bi[c] -= ci * h[c];
            }
        }
    }
    return M;
}

/* numpy's SeedSequence (numpy/random/bit_generator.pyx) with its default
 * pool of four 32-bit words, no spawn key, and as entropy the `count`
 * 32-bit words of a nonnegative integer, least significant first, each
 * stored little-endian in the bytes at seed: numpy's hashmix and mix fill
 * the pool, and generate_state hashes the cycled pool into n_words words.
 * The words go to out as uint32 when wide is 0; otherwise pairs of them
 * go as the uint64 words (low word first) of n_words / 2 outputs, as
 * numpy's state.astype('<u4').view('<u8') reads them on any byte order.
 * All arithmetic is on uint32_t, modulo 2^32, as numpy's is. */
#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u
#define SS_XSHIFT 16

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    value ^= value >> SS_XSHIFT;
    return value;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = SS_MIX_L * x - SS_MIX_R * y;
    result ^= result >> SS_XSHIFT;
    return result;
}

static uint32_t seed_word(const unsigned char *seed, int64_t i)
{
    const unsigned char *b = seed + 4 * i;
    return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
        | (uint32_t)b[3] << 24;
}

void seed_state(const unsigned char *seed, int64_t count, int64_t n_words,
                int wide, void *out)
{
    uint32_t pool[SS_POOL];
    uint32_t hash_const = SS_INIT_A;
    for (int64_t i = 0; i < SS_POOL; i++)
        pool[i] = hashmix(i < count ? seed_word(seed, i) : 0u, &hash_const);
    for (int64_t src = 0; src < SS_POOL; src++)
        for (int64_t dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = SS_POOL; src < count; src++)
        for (int64_t dst = 0; dst < SS_POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(seed_word(seed, src),
                                               &hash_const));

    hash_const = SS_INIT_B;
    uint32_t *out32 = out;
    uint64_t *out64 = out;
    for (int64_t i = 0; i < n_words; i++) {
        uint32_t value = pool[i % SS_POOL] ^ hash_const;
        hash_const *= SS_MULT_B;
        value *= hash_const;
        value ^= value >> SS_XSHIFT;
        if (!wide)
            out32[i] = value;
        else if (i % 2 == 0)
            out64[i / 2] = value;
        else
            out64[i / 2] |= (uint64_t)value << 32;
    }
}

/* numpy's float64 sum of n contiguous values (pairwise_sum in numpy's
 * loops_utils.h.src, which np.add.reduce runs on a contiguous array):
 * below 8 values a plain loop; up to 128, eight running sums, combined
 * as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail;
 * above that, the halves split at a multiple of 8.  numpy then adds the
 * result to its identity +0.0, which changes only a -0.0 sum; every sum
 * leverage_draw takes is positive, and laplacian_diagonal adds it. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
            + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* The M picks of a leverage draw over the n nodes with the weights w,
 * each `rng.choice(remaining, p=w / w.sum())` over the nodes not yet
 * picked, in numpy's arithmetic: p_i = w_i / pairwise_sum(w), the running
 * sums cdf_i = cdf_(i-1) + p_i, and the first node whose cdf_i / cdf_last
 * exceeds the pick's uniform u[t] (searchsorted(side="right") on the
 * nondecreasing normalized sums).  The caller checks that the weights
 * are finite and nonnegative and that at least M are nonzero, so every
 * sum is positive and a zero weight is never picked.  w (n entries) is
 * overwritten: each pick is removed from it and from remaining (n
 * entries of scratch), the remaining nodes keeping their order; cdf is
 * n entries of scratch. */
void leverage_draw(double *w, int64_t n, int64_t M, const double *u,
                   double *cdf, int64_t *remaining, int64_t *picks)
{
    for (int64_t i = 0; i < n; i++)
        remaining[i] = i;
    for (int64_t t = 0; t < M; t++) {
        int64_t m = n - t;
        double total = pairwise_sum(w, m);
        cdf[0] = w[0] / total;
        for (int64_t i = 1; i < m; i++)
            cdf[i] = cdf[i - 1] + w[i] / total;
        double last = cdf[m - 1];
        int64_t j = 0;
        while (j < m - 1 && !(u[t] < cdf[j] / last))
            j++;
        picks[t] = remaining[j];
        for (int64_t i = j; i < m - 1; i++) {
            w[i] = w[i + 1];
            remaining[i] = remaining[i + 1];
        }
    }
}

/* The diagonal of the Laplacian of the graph on n nodes with the m edges
 * (rows[k], cols[k]) of weights[k], each listed once with rows[k] <
 * cols[k], in (i, j) order, the one definition of L's diagonal in
 * gsample: row i's off-diagonal entries 0.0 - w are written into row, n
 * zeros, which are summed as np.add.reduce sums them and cleared again,
 * and diag[i] is 0.0 minus that sum.  by_col lists the
 * edges in ascending order of cols[k]: row i's entries left of the
 * diagonal are the edges by_col[t] with cols == i, and those right of
 * it the edges k with rows[k] == i. */
void laplacian_diagonal(int64_t n, const int64_t *rows, const int64_t *cols,
                        const double *weights, const int64_t *by_col,
                        int64_t m, double *row, double *diag)
{
    int64_t k = 0, t = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t k0 = k, t0 = t;
        for (; t < m && cols[by_col[t]] == i; t++)
            row[rows[by_col[t]]] = 0.0 - weights[by_col[t]];
        for (; k < m && rows[k] == i; k++)
            row[cols[k]] = 0.0 - weights[k];
        diag[i] = 0.0 - (0.0 + pairwise_sum(row, n));
        for (; t0 < t; t0++)
            row[rows[by_col[t0]]] = 0.0;
        for (; k0 < k; k0++)
            row[cols[k0]] = 0.0;
    }
}
