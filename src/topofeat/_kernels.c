/* The compiled kernels of topofeat, loaded through ctypes by _kernels.py,
 * which compiles this file on first use.
 *
 * Homology: rips_pairs is handed the distance matrix and the scale cap.  It
 * orders the edges, ranks their lengths, sweeps H0 and reduces the H1
 * coboundary columns mod 2.  A length is only compared and copied: a
 * nonnegative double orders as its bit pattern, and each birth and death
 * leaves as a copy of a distance, so the diagram bytes are those of the
 * integer algorithm whatever the compiler does with floating point.
 *
 * The triangle key lives here and nowhere else.  Triangle {x, y, z},
 * x < y < z, whose longest edge has diameter rank r, is the int64
 * ((r * n + x) * n + y) * n + z, so keys order triangles as the refined
 * filtration does: by diameter, then lexicographically.  A death is found
 * as a diameter rank, key / n^3.  A column is a set of triangle keys, its
 * pivot the smallest.  The column being reduced is a radix heap in which
 * only the keys held an odd number of times count, and a reduced column is
 * kept as the cycle edges whose coboundaries sum to it.  rips_pairs checks
 * that every key fits in an int64 before it builds any.
 *
 * The k-PDTM: the neighbour statistics of dtm_profile and the whole
 * kpdtm_fit of denoise.py, in floating point.  Every sum runs in the order
 * numpy's would (see pairwise below), and the file is built with
 * -ffp-contract=off, so no product is fused into an add and the results
 * are numpy's bit for bit.  Both searches of the fit, a query's q nearest
 * points and a point's best center, walk a uniform grid over the first two
 * coordinates and skip only the cells that a bound proves cannot win, so
 * the grid changes the cost and never a bit.  Each assignment of the fit is
 * that search, for every point, so the fit rests on the grid's bound alone.
 * The fit keeps no k x n score matrix: its memory is O(k + n).
 *
 * The SVM: svm_smo runs the simplified SMO loop of classify.train_svm on the
 * Gram matrix numpy builds.  Each error term sums its products in the order
 * of the strided ddot of OpenBLAS's SkylakeX (AVX-512) kernel, the order
 * numpy's ay.dot(k[:, i]) takes there: blocks of four rounded products,
 * t1 += m1 + m3 and t2 += m2 + m4, then the tail as
 * t1 = fma(k[r][i], ay[r], t1), then t1 + t2.  libm's fma rounds once on
 * every machine, and -ffp-contract=off fuses nothing else, so the fit
 * depends on no BLAS kernel.  The partner draw is numpy's
 * Generator.integers(n - 1) from the PCG64 state Python hands over: the
 * 128-bit step, the XSL-RR output, its upper half buffered for the next
 * 32-bit draw, and Lemire's bounded draw.
 *
 * The band-pass: filtfilt is scipy.signal.filtfilt with padtype "even" on
 * every row of a recording in one call, on the (b, a) and initial state zi
 * that ingest.py designs as scipy does.  Each pass is the float64 loop of
 * scipy's _linear_filter (lfilter), operation for operation, and nothing is
 * fused, so the filtered signal is scipy's bit for bit, NaN and overflow
 * included.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* qsort's comparison of two int64 keys, for ascending order. */
static int ascending(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* The ids a[0..m) summed over GF(2), sorted, into their own front: equal ids
 * cancel in pairs.  Returns how many remain. */
static i64 cancel_pairs(i64 *a, i64 m)
{
    i64 k = 0;
    qsort(a, (size_t)m, sizeof *a, ascending);
    for (i64 i = 0; i < m; i++) {
        if (k > 0 && a[k - 1] == a[i]) k--;
        else a[k++] = a[i];
    }
    return k;
}

typedef struct { i64 *key; i64 len, cap; } run;

/* Room for more keys after the len held in r, which it keeps. */
static int grow(run *r, i64 more)
{
    i64 cap = r->cap ? r->cap : 64, *key;
    if (r->len + more <= r->cap) return 0;
    while (cap < r->len + more) cap *= 2;
    if (!(key = realloc(r->key, (size_t)cap * sizeof *key))) return 1;
    r->key = key;
    r->cap = cap;
    return 0;
}

/* The working column: a radix heap of triangle keys, a multiset over GF(2).
 * Every key it holds is at least last, the latest pivot, and a key sits in
 * bucket i when i is the bit length of key ^ last; keys are nonnegative
 * int64, so i < 64, and bucket 0 holds the copies of last.  Bit i of full is
 * set while bucket i may hold keys. */
typedef struct { run bucket[64]; uint64_t full; i64 last; } heap;

static void heap_clear(heap *h, i64 last)
{
    for (int i = 0; i < 64; i++) h->bucket[i].len = 0;
    h->full = 0;
    h->last = last;
}

/* Adds key, at least last, to its bucket and returns the bucket's number,
 * or -1 when memory runs out.  The callers keep a heap's last and full in
 * locals: a key stored through a pointer could alias the fields, so these
 * would be read back from memory after every key. */
static inline int push(run *bucket, i64 last, i64 key)
{
    int i = key == last ? 0 : 64 - __builtin_clzll((uint64_t)(key ^ last));
    run *b = &bucket[i];
    if (b->len == b->cap && grow(b, 1)) return -1;
    b->key[b->len++] = key;
    return i;
}

/* The smallest key held an odd number of times, into *pivot, or -1 once
 * the column vanishes; the keys below it are dropped, having cancelled.
 * The pivot stays in the heap, as h->last.  A bucket i > 0 is emptied into
 * lower buckets around its least key, which becomes last: each of its keys
 * agrees with that one on every bit from i - 1 up. */
static int next_pivot(heap *h, i64 *pivot)
{
    uint64_t full = h->full;
    i64 last = h->last;
    for (;;) {
        run *b = &h->bucket[0];
        i64 len;
        if (b->len % 2) break;
        b->len = 0;
        full &= ~(uint64_t)1;
        if (!full) { last = -1; break; }
        b = &h->bucket[__builtin_ctzll(full)];
        full &= full - 1;
        len = b->len;
        last = b->key[0];
        for (i64 j = 1; j < len; j++)
            if (b->key[j] < last) last = b->key[j];
        for (i64 j = 0; j < len; j++) {
            int i = push(h->bucket, last, b->key[j]);
            if (i < 0) return 1;
            full |= (uint64_t)1 << i;
        }
        b->len = 0;
    }
    h->full = full;
    *pivot = h->last = last;
    return 0;
}

/* The vertex digits (x * n + y) * n + z of triangle {a, b, k}, a < b, with
 * x < y < z its vertices; for fixed (a, b) they grow with k. */
static i64 digits(i64 n, i64 a, i64 b, i64 k)
{
    if (k < a) return (k * n + a) * n + b;
    if (k < b) return (a * n + k) * n + b;
    return (a * n + b) * n + k;
}

/* Edge (a, b), a < b, and key, the bit pattern of its length. */
typedef struct { uint64_t key; int32_t a, b; } edge;

/* Pushes the coboundary of edge (a, b), a < b, up to the cap, onto h, in
 * vertex order, less its keys below low.  rank is the n x n table of
 * diameter ranks; over marks a pair past the cap. */
static int push_coboundary(heap *h, i64 n, const int32_t *rank, i64 over, i64 a, i64 b, i64 low)
{
    const int32_t *ra = rank + a * n, *rb = rank + b * n;
    i64 n3 = n * n * n, rab = ra[b], last = h->last;
    uint64_t full = h->full;
    for (i64 k = 0; k < n; k++) {
        i64 d = ra[k] > rb[k] ? ra[k] : rb[k], key;
        int i;
        if (d < rab) d = rab;
        if (k == a || k == b || d >= over) continue;
        key = d * n3 + digits(n, a, b, k);
        if (key < low) continue;
        if ((i = push(h->bucket, last, key)) < 0) return 1;
        full |= (uint64_t)1 << i;
    }
    h->full = full;
    return 0;
}

/* Key of the earliest cofacet of edge (a, b), a < b: least diameter rank,
 * then least third vertex, so the least key of its coboundary; -1 if every
 * cofacet lies past the cap.  Sets *apparent when (a, b) is that cofacet's
 * latest facet.  Edges enter the filtration by (rank, smaller vertex,
 * larger vertex), which the facet order (rank * n + x) * n + y follows. */
static i64 earliest_cofacet(i64 n, const int32_t *rank, i64 over, i64 a, i64 b, int *apparent)
{
    const int32_t *ra = rank + a * n, *rb = rank + b * n;
    i64 rab = ra[b], best = over, k = -1;
    for (i64 v = 0; v < n; v++) {
        i64 d = ra[v] > rb[v] ? ra[v] : rb[v];
        if (d < rab) d = rab;
        if (d < best && v != a && v != b) {
            best = d;
            k = v;
            if (d == rab) break; /* no cofacet is earlier, and a later vertex loses the tie */
        }
    }
    *apparent = 0;
    if (k < 0) return -1;
    i64 ab = (rab * n + a) * n + b;
    i64 ak = k < a ? (ra[k] * n + k) * n + a : (ra[k] * n + a) * n + k;
    i64 bk = k < b ? (rb[k] * n + k) * n + b : (rb[k] * n + b) * n + k;
    *apparent = ak < ab && bk < ab;
    return best * n * n * n + digits(n, a, b, k);
}

/* Pivot table: open addressing from a key to its column's slot. */
typedef struct { i64 *key, *slot; int bits; } table;

static i64 home(const table *t, i64 key)
{
    return (i64)(((uint64_t)key * 0x9E3779B97F4A7C15ull) >> (64 - t->bits));
}

static i64 find(const table *t, i64 key)
{
    i64 mask = ((i64)1 << t->bits) - 1;
    for (i64 h = home(t, key); t->key[h] >= 0; h = (h + 1) & mask)
        if (t->key[h] == key) return t->slot[h];
    return -1;
}

static void insert(table *t, i64 key, i64 slot)
{
    i64 mask = ((i64)1 << t->bits) - 1, h = home(t, key);
    while (t->key[h] >= 0) h = (h + 1) & mask;
    t->key[h] = key;
    t->slot[h] = slot;
}

/* Reduce the coboundary columns of the cycle edges, given in filtration
 * order, and write each one's death to death: the diameter rank of its
 * final pivot, or -1 once the column vanishes or if it has no cofacet.
 *
 * One scan per edge finds its earliest cofacet.  An edge that is the latest
 * facet of that cofacet pairs with it apparently, and those pairs seed the
 * pivot table, key -> slot.  The other columns are reduced latest edge
 * first.  A column whose pivot is new enters as it stands (an emergent
 * pair).  A column that must be reduced is pushed onto the radix heap, and
 * so is each stored column added to it, until its pivot is new or it
 * vanishes.  A stored column is kept as the cycle edges whose coboundaries
 * sum to it, an ascending run in one pool: its own edge and those of the
 * columns added to it, equal ones cancelled in pairs.  Adding it pushes
 * those coboundaries afresh, less their keys below the pivot, which cancel
 * in pairs since the stored column has no key below its own pivot.
 * Returns nonzero when memory runs out. */
static int reduce_h1(i64 n, const int32_t *rank, i64 over, i64 n_cycle, const edge *cycle,
                     i64 *death)
{
    i64 n3 = n * n * n, used = 0, *first, *start, *size;
    table t = {NULL, NULL, 1};
    run pool = {NULL, 0, 0}; /* the edge sets, as positions in cycle */
    heap h;
    int failed = 1, apparent;
    if (n_cycle == 0) return 0;
    memset(&h, 0, sizeof h);
    while (((i64)1 << t.bits) < 2 * n_cycle) t.bits++;
    t.key = malloc(((size_t)1 << t.bits) * sizeof *t.key);
    t.slot = malloc(((size_t)1 << t.bits) * sizeof *t.slot);
    first = malloc((size_t)n_cycle * sizeof *first);
    start = malloc((size_t)n_cycle * sizeof *start);
    size = malloc((size_t)n_cycle * sizeof *size);
    if (!t.key || !t.slot || !first || !start || !size || grow(&pool, n_cycle))
        goto done;
    memset(t.key, -1, ((size_t)1 << t.bits) * sizeof *t.key);
    for (i64 c = 0; c < n_cycle; c++) {
        first[c] = earliest_cofacet(n, rank, over, cycle[c].a, cycle[c].b, &apparent);
        death[c] = apparent ? first[c] / n3 : -1; /* >= 0 marks the apparent pairs */
        if (apparent) {
            start[used] = pool.len;
            size[used] = 1;
            pool.key[pool.len++] = c;
            insert(&t, first[c], used++);
        }
    }
    for (i64 c = n_cycle - 1; c >= 0; c--) {
        i64 key = first[c], from = pool.len, s;
        if (death[c] >= 0) continue; /* paired apparently */
        if (grow(&pool, 1)) goto done;
        pool.key[pool.len++] = c;
        s = key >= 0 ? find(&t, key) : -1;
        if (s >= 0) {
            heap_clear(&h, key);
            if (push_coboundary(&h, n, rank, over, cycle[c].a, cycle[c].b, key)) goto done;
            while (s >= 0) {
                if (grow(&pool, size[s])) goto done;
                for (i64 *e = pool.key + start[s], *end = e + size[s]; e < end; e++) {
                    if (push_coboundary(&h, n, rank, over, cycle[*e].a, cycle[*e].b, key))
                        goto done;
                    pool.key[pool.len++] = *e;
                }
                if (next_pivot(&h, &key)) goto done;
                s = key >= 0 ? find(&t, key) : -1;
            }
            pool.len = from + cancel_pairs(pool.key + from, pool.len - from);
        }
        if (key >= 0) {
            start[used] = from;
            size[used] = pool.len - from;
            insert(&t, key, used++);
        } else {
            pool.len = from;
        }
        death[c] = key >= 0 ? key / n3 : -1;
    }
    failed = 0;
done:
    for (int i = 0; i < 64; i++) free(h.bucket[i].key);
    free(pool.key); free(size); free(start); free(first); free(t.slot); free(t.key);
    return failed;
}

/* Sorts the m > 0 edges of e by key, stably, through tmp: one pass a byte,
 * least significant first, less the bytes that every key shares.  Returns
 * the array that holds the sorted edges, e or tmp. */
static edge *radix_sort(edge *e, edge *tmp, i64 m)
{
    i64 at[8][256] = {{0}};
    for (i64 k = 0; k < m; k++)
        for (int d = 0; d < 8; d++) at[d][(e[k].key >> 8 * d) & 255]++;
    for (int d = 0; d < 8; d++) {
        edge *t = e;
        if (at[d][(e[0].key >> 8 * d) & 255] == m) continue;
        for (i64 v = 0, sum = 0, size; v < 256; v++, sum += size) size = at[d][v], at[d][v] = sum;
        for (i64 k = 0; k < m; k++) tmp[at[d][(e[k].key >> 8 * d) & 255]++] = e[k];
        e = tmp, tmp = t;
    }
    return e;
}

/* The pairs of the Rips filtration of the n x n finite distances dmat, n >= 2,
 * up to cap.  The edges (a, b), a < b, are listed row by row and sorted
 * stably by length (no distance is -0.0, so each orders as its bits): they
 * enter by (length, a, b).  A union-find sweep writes the length of each edge
 * that merges two components to h0; the others close cycles.  Each H1 pair
 * with death > birth goes to birth and death (+inf if essential); count[0]
 * and count[1] are how many.  Returns 0, 1 when memory runs out, or 2 when a
 * triangle key would not fit an int64. */
int rips_pairs(i64 n, const double *dmat, double cap, double *h0, double *birth, double *death,
               i64 *count)
{
    size_t most = (size_t)(n * (n - 1) / 2);
    edge *e = malloc(most * sizeof *e), *tmp = malloc(most * sizeof *tmp), *sorted;
    double *uniq = malloc(most * sizeof *uniq);
    i64 *dies = malloc(most * sizeof *dies), *parent = malloc((size_t)n * sizeof *parent);
    i64 m = 0, over = 0, merged = 0, n_cycle = 0, found = 0;
    int32_t *rank = malloc((size_t)(n * n) * sizeof *rank);
    int failed = 1;
    if (!e || !tmp || !uniq || !dies || !parent || !rank) goto done;
    for (i64 a = 0; a < n; a++)
        for (i64 b = a + 1; b < n; b++)
            if (dmat[a * n + b] <= cap) {
                memcpy(&e[m].key, &dmat[a * n + b], sizeof e[m].key);
                e[m].a = (int32_t)a, e[m++].b = (int32_t)b;
            }
    sorted = m ? radix_sort(e, tmp, m) : e;
    for (i64 k = 0; k < m; k++) over += k == 0 || sorted[k].key != sorted[k - 1].key;
    if ((unsigned __int128)(over + 1) * n * n * n >= (unsigned __int128)1 << 63) {
        failed = 2;
        goto done;
    }
    /* rank[x][y]: the rank of dmat[x][y] among the distinct lengths, over past
     * the cap, 0 on the diagonal; over < 2^31, as over <= n^2 / 2 and the keys fit */
    for (i64 p = 0; p < n * n; p++) rank[p] = (int32_t)over;
    for (i64 v = 0; v < n; v++) rank[v * n + v] = 0, parent[v] = v;
    for (i64 k = 0, r = -1; k < m; k++) {
        i64 a = sorted[k].a, b = sorted[k].b;
        if (k == 0 || sorted[k].key != sorted[k - 1].key) uniq[++r] = dmat[a * n + b];
        rank[a * n + b] = rank[b * n + a] = (int32_t)r;
    }
    for (i64 k = 0; k < m; k++) {
        i64 x = sorted[k].a, y = sorted[k].b, a = x, b = y;
        if (merged < n - 1) {
            while (parent[a] != a) a = parent[a] = parent[parent[a]];
            while (parent[b] != b) b = parent[b] = parent[parent[b]];
            if (a != b) {
                parent[b] = a;
                h0[merged++] = dmat[x * n + y];
                continue;
            }
        }
        sorted[n_cycle++] = sorted[k]; /* the cycle edges, in order, in place */
    }
    if (reduce_h1(n, rank, over, n_cycle, sorted, dies)) goto done;
    for (i64 c = 0; c < n_cycle; c++) {
        double b = dmat[sorted[c].a * n + sorted[c].b], d = dies[c] < 0 ? INFINITY : uniq[dies[c]];
        if (d > b) { /* an apparent pair dies at its own length */
            birth[found] = b;
            death[found++] = d;
        }
    }
    count[0] = merged, count[1] = found;
    failed = 0;
done:
    free(rank); free(parent); free(dies); free(uniq); free(tmp); free(e);
    return failed;
}

/* ---------------------------------------------------------------- k-PDTM */

/* 0 + numpy's pairwise sum of a[0], a[stride], ..., a[(n - 1) * stride]:
 * a sequential sum below 8 terms, 8 accumulators up to 128, and halves cut
 * at a multiple of 8 above.  np.add.reduce starts from its identity 0 and
 * adds this, which turns a -0.0 sum into 0.0. */
static double pairwise_sum(const double *a, i64 n, i64 stride)
{
    if (n < 8) {
        double res = -0.0;
        for (i64 i = 0; i < n; i++) res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        i64 i;
        for (int j = 0; j < 8; j++) r[j] = a[j * stride];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[(i + j) * stride];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i * stride];
        return res;
    }
    i64 half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half, stride) + pairwise_sum(a + half * stride, n - half, stride);
}

static double sum(const double *a, i64 n)
{
    return 0.0 + pairwise_sum(a, n, 1);
}

/* Squared distance as scipy's cdist computes it: 0 + the squared
 * differences, in coordinate order. */
static double sqdist(const double *x, const double *y, i64 d)
{
    double s = 0.0;
    for (i64 c = 0; c < d; c++) {
        double t = x[c] - y[c];
        s += t * t;
    }
    return s;
}

/* Whether score s of center j comes before score b of center bj in the order
 * of numpy's argmin: NaN first, then ascending, then the lower index. */
static int precedes(double s, i64 j, double b, i64 bj)
{
    if (isnan(s) || isnan(b)) return isnan(s) && (!isnan(b) || j < bj);
    return s < b || (s == b && j < bj);
}

/* The lesser of a and b, NaN if either is. */
static double lesser(double a, double b)
{
    return isnan(b) || b < a ? b : a;
}

/* Items, cloud points or centers, bucketed on a uniform grid over their
 * first min(d, 2) coordinates, about two to a cell.  The searches skip a
 * cell only on a bound that holds in floating point (see walk), so the grid
 * decides which items are looked at, never which one wins. */
typedef struct {
    i64 d, nc[2];        /* item dimension; cells along each axis */
    double lo[2], h;     /* the interior edges of axis x are lo[x] + c * h */
    double *edge[2];     /* the nc[x] + 1 edges of axis x: -inf, the interior ones, +inf */
    i64 *start;          /* cell y * nc[0] + x: grid positions start[cell] to start[cell + 1] */
    i64 *index;          /* the item at each grid position, ascending within a cell */
    double *coord;       /* the items' coordinates in grid order */
    double *least, least_all; /* centers: each cell's least variance and the least of
                               * all, NaN if any is NaN, as is a NaN mean's; points: NULL and 0 */
} grid;

static void grid_free(grid *g)
{
    free(g->edge[0]); free(g->edge[1]); free(g->start); free(g->index); free(g->coord);
    free(g->least);
}

/* The cell c of axis x with edge[c] <= y[x] < edge[c + 1], found from an
 * estimate by comparisons with the stored edges: the last cell for +inf and
 * the first for NaN.  An axis of one cell reads no coordinate. */
static i64 locate(const grid *g, int x, const double *y)
{
    const double *e = g->edge[x];
    i64 nc = g->nc[x], c = 0;
    if (nc == 1) return 0;
    double t = (y[x] - g->lo[x]) / g->h;
    if (t >= 1) c = t < nc ? (i64)t : nc - 1;
    while (c > 0 && y[x] < e[c]) c--;
    while (c < nc - 1 && y[x] >= e[c + 1]) c++;
    return c;
}

/* Buckets the m items xs (m x d, m >= 1); var is each item's variance when
 * the items are centers, NULL for points.  The cell side is
 * h = max(sqrt(w0 * w1 / cells), max(w0, w1) / cells) for spans w0, w1 and
 * m / 2 cells, so no axis has more than cells + 1 cells.  An axis whose span
 * is zero, subnormal, infinite or NaN gets one cell, as does every axis when
 * h is not a finite normal number, so no cell index is cast from an infinite
 * or NaN quotient.  A counting sort keeps each cell's items in index order.
 * Returns nonzero when memory runs out; g is to be freed either way. */
static int grid_build(grid *g, i64 m, i64 d, const double *xs, const double *var)
{
    i64 axes = d < 2 ? d : 2, cells = m / 2 > 1 ? m / 2 : 1, n_cells, *cell;
    double w[2] = {0.0, 0.0};
    memset(g, 0, sizeof *g);
    g->d = d;
    g->nc[0] = g->nc[1] = 1;
    for (int x = 0; x < axes; x++) {
        double lo = xs[x], hi = xs[x];
        for (i64 i = 1; i < m; i++) {
            if (xs[i * d + x] < lo) lo = xs[i * d + x];
            if (xs[i * d + x] > hi) hi = xs[i * d + x];
        }
        g->lo[x] = lo;
        w[x] = hi - lo;
        if (!(w[x] >= DBL_MIN && w[x] <= DBL_MAX)) w[x] = 0.0;
    }
    g->h = fmax(sqrt(w[0] * w[1] / (double)cells), fmax(w[0], w[1]) / (double)cells);
    if (g->h >= DBL_MIN && g->h <= DBL_MAX)
        for (int x = 0; x < axes; x++) {
            double t = w[x] / g->h;
            g->nc[x] = t < (double)cells ? (i64)t + 1 : cells + 1;
        }
    for (int x = 0; x < 2; x++) {
        if (!(g->edge[x] = malloc((size_t)(g->nc[x] + 1) * sizeof **g->edge))) return 1;
        g->edge[x][0] = -INFINITY;
        for (i64 c = 1; c < g->nc[x]; c++) g->edge[x][c] = g->lo[x] + (double)c * g->h;
        g->edge[x][g->nc[x]] = INFINITY;
    }
    n_cells = g->nc[0] * g->nc[1];
    g->start = calloc((size_t)n_cells + 2, sizeof *g->start);
    g->index = malloc((size_t)m * sizeof *g->index);
    g->coord = malloc((size_t)(m * d) * sizeof *g->coord);
    cell = malloc((size_t)m * sizeof *cell);
    if (var) g->least = malloc((size_t)n_cells * sizeof *g->least);
    if (!g->start || !g->index || !g->coord || !cell || (var && !g->least)) {
        free(cell);
        return 1;
    }
    /* cell c's count goes to start[c + 2], and the prefix sums make start[c + 1]
     * its first position; placing the items moves that to its end */
    for (i64 i = 0; i < m; i++) {
        cell[i] = locate(g, 1, xs + i * d) * g->nc[0] + locate(g, 0, xs + i * d);
        g->start[cell[i] + 2]++;
    }
    for (i64 c = 2; c <= n_cells; c++) g->start[c] += g->start[c - 1];
    for (i64 i = 0; i < m; i++) {
        i64 p = g->start[cell[i] + 1]++;
        g->index[p] = i;
        memcpy(g->coord + p * d, xs + i * d, (size_t)d * sizeof *g->coord);
    }
    free(cell);
    if (var) {
        g->least_all = INFINITY;
        for (i64 c = 0; c < n_cells; c++) {
            g->least[c] = INFINITY;
            for (i64 p = g->start[c]; p < g->start[c + 1]; p++)
                g->least[c] = lesser(g->least[c], var[g->index[p]]);
            g->least_all = lesser(g->least_all, g->least[c]);
        }
    }
    return 0;
}

/* y's gap along axis x to cell c of that axis, y lying in cell c0: from y
 * to the nearer edge of c, or 0 for c0 itself, which reads no coordinate. */
static double gap(const grid *g, int x, const double *y, i64 c0, i64 c)
{
    if (c < c0) return y[x] - g->edge[x][c + 1];
    return c > c0 ? g->edge[x][c] - y[x] : 0.0;
}

/* Calls scan(ctx, first, end) on the grid positions of each cell of g that
 * can hold an item within *limit of y, walking rings of cells outward from
 * y's cell.  An item of another cell lies beyond that cell's edge from y,
 * so its coordinate differences are at least the gaps in magnitude, also
 * after rounding, which is monotone.  Squares and sums of nonnegative terms
 * round monotonically too, so the computed sqdist(x, y), plus the item's
 * variance, is at least gx^2 + gy^2 + least[cell].  A cell is skipped, and
 * the walk ends at a ring, only when that bound is strictly greater than
 * *limit, which scan may lower: an item tied with the limit can still win
 * by its index.  A NaN bound skips nothing. */
static void walk(const grid *g, const double *y, const double *limit,
                 void (*scan)(void *, i64, i64), void *ctx)
{
    i64 nx = g->nc[0], ny = g->nc[1], cx = locate(g, 0, y), cy = locate(g, 1, y);
    i64 reach = cx > nx - 1 - cx ? cx : nx - 1 - cx;
    if (reach < cy) reach = cy;
    if (reach < ny - 1 - cy) reach = ny - 1 - cy;
    for (i64 r = 0; r <= reach; r++) {
        if (r > 0) { /* the least gap to the ring's sides bounds every cell from here on */
            double low = INFINITY;
            if (cx - r >= 0) low = lesser(low, gap(g, 0, y, cx, cx - r));
            if (cx + r < nx) low = lesser(low, gap(g, 0, y, cx, cx + r));
            if (cy - r >= 0) low = lesser(low, gap(g, 1, y, cy, cy - r));
            if (cy + r < ny) low = lesser(low, gap(g, 1, y, cy, cy + r));
            if (low * low + g->least_all > *limit) return;
        }
        for (i64 j = cy - r > 0 ? cy - r : 0; j <= cy + r && j < ny; j++) {
            double gy = gap(g, 1, y, cy, j);
            i64 step = j == cy - r || j == cy + r ? 1 : 2 * r; /* a whole row, or its two ends */
            for (i64 i = cx - r; i <= cx + r; i += step) {
                if (i < 0 || i >= nx) continue;
                double gx = gap(g, 0, y, cx, i);
                i64 c = j * nx + i;
                if (gx * gx + gy * gy + (g->least ? g->least[c] : 0.0) > *limit) continue;
                scan(ctx, g->start[c], g->start[c + 1]);
            }
        }
    }
}

/* The cloud on its grid, and the scratch of one neighbour query. */
typedef struct {
    grid g;
    i64 q, count;        /* neighbours wanted, and found so far */
    double *best_d, limit; /* the nearest so far by (distance, index), and the q-th
                            * distance once there are q, else +inf */
    i64 *best_i;
    const double *pts, *y;
    double *work;        /* q neighbours' coordinates, then q squared deviations */
} search;

static void search_free(search *s)
{
    grid_free(&s->g); free(s->best_d); free(s->best_i); free(s->work);
}

/* Returns nonzero when memory runs out; s is to be freed either way. */
static int search_init(search *s, i64 n, i64 d, const double *pts, i64 q)
{
    int failed = grid_build(&s->g, n, d, pts, NULL);
    s->q = q;
    s->pts = pts;
    s->best_d = malloc((size_t)q * sizeof *s->best_d);
    s->best_i = malloc((size_t)q * sizeof *s->best_i);
    s->work = malloc((size_t)q * (size_t)(d + 1) * sizeof *s->work);
    return failed || !s->best_d || !s->best_i || !s->work;
}

/* Offer point p at squared distance dist to the q nearest. */
static void offer(search *s, double dist, i64 p)
{
    i64 j = s->count;
    if (j == s->q) {
        if (dist > s->best_d[j - 1] || (dist == s->best_d[j - 1] && p > s->best_i[j - 1]))
            return;
        j--;
    } else {
        s->count++;
    }
    for (; j > 0 && (s->best_d[j - 1] > dist || (s->best_d[j - 1] == dist && s->best_i[j - 1] > p));
         j--) {
        s->best_d[j] = s->best_d[j - 1];
        s->best_i[j] = s->best_i[j - 1];
    }
    s->best_d[j] = dist;
    s->best_i[j] = p;
    if (s->count == s->q) s->limit = s->best_d[s->q - 1];
}

static void scan_points(void *ctx, i64 first, i64 end)
{
    search *s = ctx;
    for (i64 p = first; p < end; p++)
        offer(s, sqdist(s->g.coord + p * s->g.d, s->y, s->g.d), s->g.index[p]);
}

/* The q nearest points of y by (squared distance, index), into best_i. */
static void nearest(search *s, const double *y)
{
    s->y = y;
    s->count = 0;
    s->limit = INFINITY;
    walk(&s->g, y, &s->limit, scan_points, s);
}

/* Mean and mean squared deviation of the q nearest points of y, with the
 * arithmetic of numpy's neigh.sum(axis=1) / q on the (q, d) neighbours: a
 * sequential sum over the neighbours, pairwise when d = 1, where that axis
 * is contiguous; the deviations sum pairwise over the coordinates, then
 * over the neighbours. */
static void mass(search *s, const double *y, double *mean, double *spread)
{
    i64 d = s->g.d, q = s->q;
    double *nb = s->work, *dev = s->work + q * d;
    nearest(s, y);
    for (i64 j = 0; j < q; j++)
        memcpy(nb + j * d, s->pts + s->best_i[j] * d, (size_t)d * sizeof *nb);
    if (d == 1) {
        mean[0] = sum(nb, q) / (double)q;
    } else {
        for (i64 c = 0; c < d; c++) {
            double m = 0.0;
            for (i64 j = 0; j < q; j++) m += nb[j * d + c];
            mean[c] = m / (double)q;
        }
    }
    for (i64 j = 0; j < q; j++) {
        double *row = nb + j * d;
        for (i64 c = 0; c < d; c++) {
            double t = row[c] - mean[c];
            row[c] = t * t;
        }
        dev[j] = sum(row, d);
    }
    *spread = sum(dev, q) / (double)q;
}

/* For each of the nq queries, the mean and mean squared deviation of its q
 * nearest cloud points, chosen by (squared distance, index).  Returns
 * nonzero when memory runs out. */
int mass_stats(i64 n, i64 d, const double *pts, i64 nq, const double *queries, i64 q,
               double *means, double *spread)
{
    search s;
    int failed = search_init(&s, n, d, pts, q);
    for (i64 j = 0; !failed && j < nq; j++) mass(&s, queries + j * d, means + j * d, spread + j);
    search_free(&s);
    return failed;
}

/* One point's search for its (least score, first center) on a grid of the
 * centers, whose variances are var: score = sqdist(x, mean) + var. */
typedef struct {
    const grid *g;
    const double *var, *x;
    double best;
    i64 j;
} pick;

static void scan_centers(void *ctx, i64 first, i64 end)
{
    pick *c = ctx;
    for (i64 p = first; p < end; p++) {
        i64 j = c->g->index[p];
        double s = sqdist(c->x, c->g->coord + p * c->g->d, c->g->d) + c->var[j];
        if (precedes(s, j, c->best, c->j)) { c->best = s; c->j = j; }
    }
}

/* Each point i gets its (least score, first center) over the k centers into
 * (best[i], assign[i]): numpy's argmin over all of them, found on a grid of
 * the centers.  Returns nonzero when memory runs out. */
static int assign_points(i64 n, i64 d, const double *pts, i64 k, const double *means,
                         const double *variances, i64 *assign, double *best)
{
    grid g;
    int failed = grid_build(&g, k, d, means, variances);
    for (i64 i = 0; !failed && i < n; i++) {
        pick c = {&g, variances, pts + i * d, INFINITY, k};
        walk(&g, c.x, &c.best, scan_centers, &c);
        best[i] = c.best;
        assign[i] = c.j;
    }
    grid_free(&g);
    return failed;
}

/* The k-PDTM fit by alternating minimisation.  The k initial queries are
 * the points init[0..k); each center is the (mean, variance) of its query's
 * q nearest points.  Each iteration assigns every point to its first best
 * center and records the summed score in history; it stops when the
 * assignment repeats the last one or the one before it, or the summed
 * score repeats, and otherwise moves each occupied center's query to its
 * assignment centroid, refitting the centers whose query changed.
 *
 * No k x n score matrix is kept.  Whenever a center moved, every point is
 * searched again on a grid of the centers, as at the start; otherwise the
 * assignment stands.  best gets each point's least score under the
 * returned centers.  Returns the number of iterations, or -1 when memory
 * runs out. */
i64 kpdtm_fit(i64 n, i64 d, const double *pts, i64 k, const i64 *init, i64 q, i64 max_iter,
              double *means, double *variances, double *best, double *history)
{
    search s;
    i64 *assign = malloc((size_t)n * sizeof *assign), *counts = malloc((size_t)k * sizeof *counts);
    i64 *last = malloc((size_t)n * sizeof *last), *before = malloc((size_t)n * sizeof *before);
    i64 *swap, iters = -1;
    double *queries = malloc((size_t)(k * d) * sizeof *queries);
    double *sums = malloc((size_t)(k * d) * sizeof *sums), last_obj = 0.0;
    int failed = search_init(&s, n, d, pts, q);
    if (failed || !assign || !counts || !last || !before || !queries || !sums)
        goto done;
    for (i64 j = 0; j < k; j++) {
        memcpy(queries + j * d, pts + init[j] * d, (size_t)d * sizeof *queries);
        mass(&s, queries + j * d, means + j * d, variances + j);
    }
    if (assign_points(n, d, pts, k, means, variances, assign, best))
        goto done;

    for (iters = 0; iters < max_iter;) {
        double obj = sum(best, n);
        history[iters++] = obj;
        if (iters > 1 && (!memcmp(assign, last, (size_t)n * sizeof *assign) || obj == last_obj))
            break;
        if (iters > 2 && !memcmp(assign, before, (size_t)n * sizeof *assign))
            break; /* a 2-cycle */
        swap = before; before = last; last = swap;
        memcpy(last, assign, (size_t)n * sizeof *assign);
        last_obj = obj;

        /* centroids: per-center sums in point order, divided by the count */
        memset(sums, 0, (size_t)(k * d) * sizeof *sums);
        memset(counts, 0, (size_t)k * sizeof *counts);
        for (i64 i = 0; i < n; i++) {
            counts[assign[i]]++;
            for (i64 c = 0; c < d; c++) sums[assign[i] * d + c] += pts[i * d + c];
        }
        int moved = 0;
        for (i64 j = 0; j < k; j++) {
            int shifted = 0;
            if (!counts[j]) continue;
            for (i64 c = 0; c < d; c++) {
                double centroid = sums[j * d + c] / (double)counts[j];
                shifted |= centroid != queries[j * d + c];
                queries[j * d + c] = centroid;
            }
            if (!shifted) continue;
            moved = 1;
            mass(&s, queries + j * d, means + j * d, variances + j);
        }
        if (moved && assign_points(n, d, pts, k, means, variances, assign, best)) {
            iters = -1;
            break;
        }
    }
done:
    search_free(&s);
    free(assign); free(counts); free(last); free(before); free(queries); free(sums);
    return iters;
}

/* ------------------------------------------------------------------- SVM */

/* ay . k[:, i] of the n x n matrix k, summed as the strided ddot of
 * OpenBLAS's SkylakeX kernel sums it: blocks of four rounded products into
 * two accumulators, t1 += m1 + m3 and t2 += m2 + m4, then each remaining
 * product fused into t1 with one rounding, then t1 + t2. */
static double smo_dot(const double *ay, const double *k, i64 n, i64 i)
{
    const double *col = k + i;
    double t1 = 0.0, t2 = 0.0;
    i64 r = 0;
    for (; r < n - n % 4; r += 4) {
        double m1 = col[r * n] * ay[r], m2 = col[(r + 1) * n] * ay[r + 1];
        double m3 = col[(r + 2) * n] * ay[r + 2], m4 = col[(r + 3) * n] * ay[r + 3];
        t1 += m1 + m3;
        t2 += m2 + m4;
    }
    for (; r < n; r++) t1 = fma(col[r * n], ay[r], t1);
    return t1 + t2;
}

/* numpy's PCG64: the 128-bit LCG with XSL-RR output, and the upper half of
 * an output kept for the next 32-bit draw. */
typedef struct { unsigned __int128 state, inc; uint64_t has32, half; } pcg64;

static uint32_t next32(pcg64 *g)
{
    const unsigned __int128 mult =
        (unsigned __int128)0x2360ED051FC65DA4ull << 64 | 0x4385DF649FCCF645ull;
    uint64_t x, out;
    unsigned rot;
    if (g->has32) {
        g->has32 = 0;
        return (uint32_t)g->half;
    }
    g->state = g->state * mult + g->inc;
    x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    rot = (unsigned)(g->state >> 122);
    out = x >> rot | x << (-rot & 63);
    g->has32 = 1;
    g->half = out >> 32;
    return (uint32_t)out;
}

/* Generator.integers(bound) for 1 <= bound <= 2^32: Lemire's bounded draw
 * on 32-bit outputs, and no draw at all when bound is 1. */
static i64 draw_below(pcg64 *g, i64 bound)
{
    uint32_t top = (uint32_t)(bound - 1), range = top + 1;
    uint64_t m;
    if (top == 0) return 0;
    m = (uint64_t)next32(g) * range;
    if ((uint32_t)m < range) {
        uint32_t threshold = (UINT32_MAX - top) % range;
        while ((uint32_t)m < threshold) m = (uint64_t)next32(g) * range;
    }
    return (i64)(m >> 32);
}

/* Simplified SMO (Platt, MSR-TR-98-14) on the n x n Gram matrix k and the
 * labels y, each +1 or -1, with box C, as classify.train_svm documents it.
 * A sweep visits each i in turn; one that violates the KKT conditions by
 * more than tol draws its partner j from rng, the PCG64 words (state high,
 * state low, inc high, inc low, has_uint32, uinteger) of numpy's
 * bit_generator.state.  E_i = ay . k[:, i] + b - y_i, with ay the alphas
 * times y, is cached until the next pair update.  max and min keep their
 * first argument unless the second is strictly beyond it, as Python's do.
 * Stops after max_passes sweeps without an update or max_iter sweeps.
 * Writes the alphas and *bias; returns 0, or 1 when memory runs out. */
int svm_smo(i64 n, const double *k, const double *y, double C, double tol, i64 max_passes,
            i64 max_iter, const uint64_t *rng, double *alphas, double *bias)
{
    double *ay = malloc((size_t)n * sizeof *ay), *err = malloc((size_t)n * sizeof *err), b = 0.0;
    i64 *stamp = malloc((size_t)n * sizeof *stamp), epoch = 0, passes = 0, it = 0;
    pcg64 g = {(unsigned __int128)rng[0] << 64 | rng[1], (unsigned __int128)rng[2] << 64 | rng[3],
               rng[4], rng[5]};
    int failed = 1;
    if (!ay || !err || !stamp) goto done;
    for (i64 i = 0; i < n; i++) /* ay as numpy forms alphas * y: -0.0 where y is -1 */
        alphas[i] = 0.0, ay[i] = 0.0 * y[i], stamp[i] = -1;
    while (passes < max_passes && it < max_iter) {
        i64 changed = 0;
        for (i64 i = 0; i < n; i++) {
            double yi = y[i], ai_old = alphas[i], yj, aj_old, ei, ej, lo, hi, eta, ai, aj, b1, b2;
            const double *ki, *kj;
            i64 j;
            if (stamp[i] != epoch) err[i] = smo_dot(ay, k, n, i) + b - yi, stamp[i] = epoch;
            ei = err[i];
            if (!((yi * ei < -tol && ai_old < C) || (yi * ei > tol && ai_old > 0))) continue;
            j = draw_below(&g, n - 1);
            if (j >= i) j++;
            yj = y[j], aj_old = alphas[j];
            if (stamp[j] != epoch) err[j] = smo_dot(ay, k, n, j) + b - yj, stamp[j] = epoch;
            ej = err[j];
            if (yi == yj) lo = ai_old + aj_old - C, hi = ai_old + aj_old;
            else lo = aj_old - ai_old, hi = C + aj_old - ai_old;
            lo = lo > 0.0 ? lo : 0.0;
            hi = hi < C ? hi : C;
            if (hi - lo < 1e-12) continue;
            ki = k + i * n, kj = k + j * n;
            eta = 2 * ki[j] - ki[i] - kj[j];
            if (eta >= 0) continue;
            aj = aj_old - yj * (ei - ej) / eta;
            aj = aj > lo ? aj : lo;
            aj = aj < hi ? aj : hi;
            if (fabs(aj - aj_old) < 1e-7) continue;
            ai = ai_old + yi * yj * (aj_old - aj);
            alphas[i] = ai, alphas[j] = aj;
            ay[i] = ai * yi, ay[j] = aj * yj;
            epoch++;
            b1 = b - ei - yi * (ai - ai_old) * ki[i] - yj * (aj - aj_old) * ki[j];
            b2 = b - ej - yi * (ai - ai_old) * ki[j] - yj * (aj - aj_old) * kj[j];
            if (0 < ai && ai < C) b = b1;
            else if (0 < aj && aj < C) b = b2;
            else b = 0.5 * (b1 + b2);
            changed++;
        }
        it++;
        passes = changed == 0 ? passes + 1 : 0;
    }
    *bias = b;
    failed = 0;
done:
    free(ay); free(err); free(stamp);
    return failed;
}

/* One pass of the filter (b, a), ntaps coefficients each and a[0] == 1, over
 * the n values v[0], v[step], ..., in place, from the state zi * v[0]: the
 * float64 loop of scipy's _linear_filter (lfilter), operation for operation.
 * z holds the ntaps - 1 delays. */
static void lfilter_pass(i64 ntaps, const double *b, const double *a, const double *zi,
                         double *z, double *v, i64 n, i64 step)
{
    double v0 = v[0];
    for (i64 j = 0; j < ntaps - 1; j++) z[j] = zi[j] * v0;
    for (i64 k = 0; k < n; k++) {
        double x = v[k * step], y = z[0] + b[0] * x;
        for (i64 j = 0; j < ntaps - 2; j++) z[j] = (z[j + 1] + x * b[j + 1]) - y * a[j + 1];
        z[ntaps - 2] = x * b[ntaps - 1] - y * a[ntaps - 1];
        v[k * step] = y;
    }
}

/* scipy's filtfilt(b, a, x, axis=1, padtype="even", padlen=pad, method="pad")
 * on the rows x len array x, len > pad, into out: each row extended evenly by
 * pad values at each end, filtered forward from zi times its first value and
 * backward from zi times the forward pass's last, then trimmed to len.
 * Returns 0, or 1 when memory runs out. */
int filtfilt(i64 rows, i64 len, const double *x, i64 ntaps, const double *b, const double *a,
             const double *zi, i64 pad, double *out)
{
    i64 n = len + 2 * pad;
    double *ext = malloc((size_t)n * sizeof *ext), *z = malloc((size_t)ntaps * sizeof *z);
    int failed = !ext || !z;
    for (i64 r = 0; !failed && r < rows; r++) {
        const double *row = x + r * len;
        for (i64 i = 0; i < pad; i++) ext[i] = row[pad - i], ext[pad + len + i] = row[len - 2 - i];
        memcpy(ext + pad, row, (size_t)len * sizeof *ext);
        lfilter_pass(ntaps, b, a, zi, z, ext, n, 1);
        lfilter_pass(ntaps, b, a, zi, z, ext + n - 1, n, -1);
        memcpy(out + r * len, ext + pad, (size_t)len * sizeof *out);
    }
    free(ext); free(z);
    return failed;
}
