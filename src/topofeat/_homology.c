/* The integer loops of topofeat.homology: the Kruskal sweep of H0 and the
 * mod-2 reduction of the H1 coboundary columns.  homology.py compiles this
 * file on first use and calls it through ctypes.  It hands over integers
 * only: the edge list in filtration order and, for every vertex pair, the
 * rank of its length among the distinct edge lengths.  The float distances
 * never reach C, so the pairs and the diagram bytes are those of the
 * integer algorithm, whatever the compiler does with floating point.
 *
 * The triangle key lives here and nowhere else.  Triangle {x, y, z},
 * x < y < z, whose longest edge has diameter rank r, is the int64
 * ((r * n + x) * n + y) * n + z, so keys order triangles as the refined
 * filtration does: by diameter, then lexicographically.  A death leaves
 * this file as a diameter rank, key / n^3.  A column is a sorted array of
 * triangle keys; its pivot is its smallest key.  homology.py checks that
 * every key fits in an int64.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Ascending sort of distinct keys: quicksort on a median-of-three pivot,
 * insertion sort below 16 keys.  A coboundary holds at most n - 2 keys, so
 * even a quadratic worst case costs no more than the n x n tables do. */
static void sort_keys(i64 *a, i64 n)
{
    while (n > 16) {
        i64 mid = n / 2, t;
        if (a[mid] < a[0]) { t = a[mid]; a[mid] = a[0]; a[0] = t; }
        if (a[n - 1] < a[0]) { t = a[n - 1]; a[n - 1] = a[0]; a[0] = t; }
        if (a[n - 1] < a[mid]) { t = a[n - 1]; a[n - 1] = a[mid]; a[mid] = t; }
        i64 p = a[mid], i = -1, j = n;
        for (;;) { /* Hoare: a[0..j] <= p <= a[j+1..n-1], 0 <= j < n - 1 */
            do i++; while (a[i] < p);
            do j--; while (a[j] > p);
            if (i >= j) break;
            t = a[i]; a[i] = a[j]; a[j] = t;
        }
        if (j + 1 < n - j - 1) { sort_keys(a, j + 1); a += j + 1; n -= j + 1; }
        else { sort_keys(a + j + 1, n - j - 1); n = j + 1; }
    }
    for (i64 i = 1; i < n; i++) {
        i64 v = a[i], j = i;
        for (; j > 0 && a[j - 1] > v; j--) a[j] = a[j - 1];
        a[j] = v;
    }
}

/* First index of the sorted run a[0..n) whose key exceeds low. */
static i64 above(const i64 *a, i64 n, i64 low)
{
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (a[mid] <= low) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* x + y over GF(2): the symmetric difference of two sorted runs, sorted,
 * into out, which holds nx + ny keys.  Returns its length. */
static i64 add_mod2(const i64 *x, i64 nx, const i64 *y, i64 ny, i64 *out)
{
    i64 i = 0, j = 0, k = 0;
    while (i < nx && j < ny) {
        if (x[i] < y[j]) out[k++] = x[i++];
        else if (y[j] < x[i]) out[k++] = y[j++];
        else { i++; j++; }
    }
    memcpy(out + k, x + i, (size_t)(nx - i) * sizeof *out);
    k += nx - i;
    memcpy(out + k, y + j, (size_t)(ny - j) * sizeof *out);
    return k + ny - j;
}

/* Smallest key above low of the sum col + buf, or -1 if there is none.
 * Their keys up to low cancel; above it the two fronts cancel in lockstep,
 * so the pivot is the smaller key where they first differ. */
static i64 next_pivot(const i64 *col, i64 nc, const i64 *buf, i64 nb, i64 low)
{
    i64 ic = above(col, nc, low), ib = above(buf, nb, low);
    while (ic < nc && ib < nb && col[ic] == buf[ib]) { ic++; ib++; }
    if (ic < nc && ib < nb) return col[ic] < buf[ib] ? col[ic] : buf[ib];
    if (ic < nc) return col[ic];
    return ib < nb ? buf[ib] : -1;
}

/* The vertex digits (x * n + y) * n + z of triangle {a, b, k}, a < b, with
 * x < y < z its vertices; for fixed (a, b) they grow with k. */
static i64 digits(i64 n, i64 a, i64 b, i64 k)
{
    if (k < a) return (k * n + a) * n + b;
    if (k < b) return (a * n + k) * n + b;
    return (a * n + b) * n + k;
}

/* The sorted coboundary of edge (a, b), a < b, up to the cap, into out.
 * rank is the n x n table of diameter ranks; over marks a pair past the cap. */
static i64 coboundary(i64 n, const int32_t *rank, i64 over, i64 a, i64 b, i64 *out)
{
    const int32_t *ra = rank + a * n, *rb = rank + b * n;
    i64 n3 = n * n * n, rab = ra[b], len = 0;
    for (i64 k = 0; k < n; k++) {
        i64 d = ra[k] > rb[k] ? ra[k] : rb[k];
        if (d < rab) d = rab;
        if (k == a || k == b || d >= over) continue;
        out[len++] = d * n3 + digits(n, a, b, k);
    }
    sort_keys(out, len);
    return len;
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
        if (d < best && v != a && v != b) { best = d; k = v; }
    }
    *apparent = 0;
    if (k < 0) return -1;
    i64 ab = (rab * n + a) * n + b;
    i64 ak = k < a ? (ra[k] * n + k) * n + a : (ra[k] * n + a) * n + k;
    i64 bk = k < b ? (rb[k] * n + k) * n + b : (rb[k] * n + b) * n + k;
    *apparent = ak < ab && bk < ab;
    return best * n * n * n + digits(n, a, b, k);
}

typedef struct { i64 *key; i64 len, cap; } run;

/* Room for cap keys in r; its contents may be lost. */
static int reserve(run *r, i64 cap)
{
    if (cap <= r->cap) return 0;
    if (cap < 2 * r->cap) cap = 2 * r->cap;
    free(r->key);
    r->key = malloc((size_t)cap * sizeof *r->key);
    r->cap = r->key ? cap : 0;
    return r->key == NULL;
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
 * first.  A column whose pivot is new enters as its edge (an emergent
 * pair); a column that had to be reduced enters as its reduced keys.  An
 * edge's coboundary is built the first time another column adds it.  While
 * a column is reduced, the columns added to it collect in a sorted buffer,
 * which folds into the column once len(buf) * fold > len(col).  Returns
 * nonzero when memory runs out. */
int reduce_h1(i64 n, const int32_t *rank, i64 over, const i64 *ii, const i64 *jj,
              i64 n_cycle, const i64 *cycle, i64 fold, i64 *death)
{
    i64 n3 = n * n * n, used = 0, *first, *edge_of, *len;
    i64 **keys;
    table t = {NULL, NULL, 1};
    run col = {NULL, 0, 0}, buf = {NULL, 0, 0}, tmp = {NULL, 0, 0}, swap;
    int failed = 1, apparent;
    if (n_cycle == 0) return 0;
    while (((i64)1 << t.bits) < 2 * n_cycle) t.bits++;
    t.key = malloc(((size_t)1 << t.bits) * sizeof *t.key);
    t.slot = malloc(((size_t)1 << t.bits) * sizeof *t.slot);
    first = malloc((size_t)n_cycle * sizeof *first);
    edge_of = malloc((size_t)n_cycle * sizeof *edge_of);
    len = malloc((size_t)n_cycle * sizeof *len);
    keys = calloc((size_t)n_cycle, sizeof *keys);
    if (!t.key || !t.slot || !first || !edge_of || !len || !keys || reserve(&buf, n))
        goto done;
    memset(t.key, -1, ((size_t)1 << t.bits) * sizeof *t.key);
    for (i64 c = 0; c < n_cycle; c++) {
        first[c] = earliest_cofacet(n, rank, over, ii[cycle[c]], jj[cycle[c]], &apparent);
        death[c] = apparent ? first[c] / n3 : -1; /* >= 0 marks the apparent pairs */
        if (apparent) {
            edge_of[used] = cycle[c];
            insert(&t, first[c], used++);
        }
    }
    for (i64 c = n_cycle - 1; c >= 0; c--) {
        i64 key = first[c], s;
        if (death[c] >= 0) continue; /* paired apparently */
        s = key >= 0 ? find(&t, key) : -1;
        if (s >= 0) {
            if (reserve(&col, n)) goto done; /* the runs swap roles as they grow */
            col.len = coboundary(n, rank, over, ii[cycle[c]], jj[cycle[c]], col.key);
            buf.len = 0;
            while (s >= 0) {
                if (!keys[s]) {
                    if (!(keys[s] = malloc((size_t)n * sizeof **keys)))
                        goto done;
                    len[s] = coboundary(n, rank, over, ii[edge_of[s]], jj[edge_of[s]], keys[s]);
                }
                if (reserve(&tmp, buf.len + len[s])) goto done;
                tmp.len = add_mod2(buf.key, buf.len, keys[s], len[s], tmp.key);
                swap = buf; buf = tmp; tmp = swap;
                if (buf.len * fold > col.len) { /* keys up to key cancel: drop them */
                    i64 ic = above(col.key, col.len, key), ib = above(buf.key, buf.len, key);
                    if (reserve(&tmp, col.len - ic + buf.len - ib)) goto done;
                    tmp.len = add_mod2(col.key + ic, col.len - ic, buf.key + ib, buf.len - ib,
                                       tmp.key);
                    swap = col; col = tmp; tmp = swap;
                    buf.len = 0;
                }
                key = next_pivot(col.key, col.len, buf.key, buf.len, key);
                s = key >= 0 ? find(&t, key) : -1;
            }
            if (key >= 0) {
                i64 ic = above(col.key, col.len, key - 1), ib = above(buf.key, buf.len, key - 1);
                if (!(keys[used] = malloc((size_t)(col.len - ic + buf.len - ib) * sizeof **keys)))
                    goto done;
                len[used] = add_mod2(col.key + ic, col.len - ic, buf.key + ib, buf.len - ib,
                                     keys[used]);
                insert(&t, key, used++);
            }
        } else if (key >= 0) { /* emergent pair: the column is reduced as it stands */
            edge_of[used] = cycle[c];
            insert(&t, key, used++);
        }
        death[c] = key >= 0 ? key / n3 : -1;
    }
    failed = 0;
done:
    if (keys)
        for (i64 s = 0; s < used; s++) free(keys[s]);
    free(keys); free(len); free(edge_of); free(first); free(t.slot); free(t.key);
    free(col.key); free(buf.key); free(tmp.key);
    return failed;
}

/* Kruskal's sweep over the edges (ii[e], jj[e]) on vertices 0..n-1, in
 * index order: writes the positions of the edges that merge two components
 * to merging, ascending, and returns their number, or -1 when memory runs
 * out.  Union-find with path halving. */
i64 kruskal_tree(i64 n, i64 m, const i64 *ii, const i64 *jj, i64 *merging)
{
    i64 *parent = malloc((size_t)n * sizeof *parent), count = 0;
    if (!parent) return -1;
    for (i64 v = 0; v < n; v++) parent[v] = v;
    for (i64 e = 0; e < m && count < n - 1; e++) {
        i64 a = ii[e], b = jj[e];
        while (parent[a] != a) a = parent[a] = parent[parent[a]];
        while (parent[b] != b) b = parent[b] = parent[parent[b]];
        if (a != b) {
            parent[b] = a;
            merging[count++] = e;
        }
    }
    free(parent);
    return count;
}
