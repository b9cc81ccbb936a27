/* The compiled helpers of hbtm: hbtm_sweep, hbtm_scan and hbtm_lloyd.
 *
 * hbtm_sweep runs one collapsed-Gibbs sweep over flat int64 count tables.
 * It reproduces sampler.reference_sweep bit for bit: each weight is computed
 * in reference_sweep's operation order (numerator left to right, then
 * divided by the three-factor denominator), cum is a sequential running sum,
 * and the trait is picked with bisect_right's own binary search, clamped to
 * K-1. Build with -ffp-contract=off so no multiply-add is fused.
 *
 * u holds one uniform per token; cum is K doubles of scratch. Returns 0;
 * j + 1 when the weights of flat token j are degenerate (a zero denominator,
 * or a total outside (0, inf)), in which case token j is put back under its
 * old trait so the tables stay consistent; or -(j + 1) when z[j] is not a
 * trait index, before anything is written for token j.
 *
 * hbtm_scan reads a nested JSON array of numbers into doubles, with the same
 * value for every number as Python's float(); see its own comment.
 *
 * hbtm_lloyd runs analysis.kmeans' Lloyd iterations with the same floats as
 * analysis._reference_lloyd's numpy loop; see its own comment.
 */
#include <float.h>
#include <stdint.h>
#include <stdlib.h>

#define MOVE(k, d) do { \
        n_mk[m * nk + (k)] += (d); n_ke[(k) * ne + e] += (d); \
        n_ket[((k) * ne + e) * nt + t] += (d); n_kei[((k) * ne + e) * ni + i] += (d); \
        n_k[(k)] += (d); \
    } while (0)

int64_t hbtm_sweep(int64_t n, int64_t nk, int64_t ne, int64_t nt, int64_t ni,
                   double alpha, double beta, double ebeta, double gamma, double tgamma,
                   double delta, double idelta,
                   const int64_t *m_idx, const int64_t *e_idx, const int64_t *t_idx,
                   const int64_t *i_idx, int64_t *z, int64_t *n_mk, int64_t *n_ke,
                   int64_t *n_ket, int64_t *n_kei, int64_t *n_k,
                   const double *u, double *cum)
{
    for (int64_t j = 0; j < n; j++) {
        const int64_t m = m_idx[j], e = e_idx[j], t = t_idx[j], i = i_idx[j];
        int64_t k = z[j];
        if (k < 0 || k >= nk)
            return -(j + 1);
        MOVE(k, -1);
        double total = 0.0;
        for (int64_t c = 0; c < nk; c++) {
            const int64_t ke = c * ne + e;
            const double cnt = (double)n_ke[ke];
            const double den = ((double)n_k[c] + ebeta) * (cnt + tgamma) * (cnt + idelta);
            if (den == 0.0) {
                total = 0.0;
                break;
            }
            total += ((double)n_mk[m * nk + c] + alpha) * (cnt + beta)
                     * ((double)n_ket[ke * nt + t] + gamma)
                     * ((double)n_kei[ke * ni + i] + delta) / den;
            cum[c] = total;
        }
        if (!(total > 0.0 && total <= DBL_MAX)) {
            MOVE(k, 1);
            return j + 1;
        }
        const double x = u[j] * total;
        int64_t lo = 0, hi = nk;
        while (lo < hi) {
            const int64_t mid = (lo + hi) / 2;
            if (x < cum[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        k = lo < nk ? lo : nk - 1;
        z[j] = k;
        MOVE(k, 1);
    }
    return 0;
}

#define SCAN_MAX_NDIM 32

/* Every power of ten that a double holds exactly. */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static int is_space(char c)
{
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
}

/* Read a run of digits, folding them into *m while it has room; *fits drops to
 * 0 once a digit no longer fits. *count is the number of digits read. */
static const char *scan_digits(const char *p, const char *end, uint64_t *m, int *fits,
                               int64_t *count)
{
    const char *from = p;
    for (; p < end && *p >= '0' && *p <= '9'; p++) {
        if (*m < UINT64_C(100000000000000000))  /* 1e17: m * 10 + 9 still fits */
            *m = *m * 10 + (uint64_t)(*p - '0');
        else
            *fits = 0;
    }
    *count = p - from;
    return p;
}

/* Read the JSON number at p, which must carry a fraction or an exponent, into
 * *out. Returns the byte after it, or NULL to decline: bad grammar, a number
 * that runs to the span's end, or a non-finite value.
 *
 * A mantissa m <= 2^53 with a decimal exponent within +-22 is one IEEE
 * division or product of two exact doubles, so it is correctly rounded
 * (Clinger, PLDI 1990). Other numbers go to strtod, whose end pointer must
 * land on the number's end: in a locale whose decimal point is not '.', it
 * stops short and the span is declined. strtod never reads past end, because
 * the byte after the number is inside the span and cannot extend it. */
static const char *scan_number(const char *p, const char *end, double *out)
{
    const char *const start = p;
    const int negative = *p == '-';
    uint64_t m = 0;
    int fits = 1;
    int64_t count, exp10 = 0;
    if (negative)
        p++;
    const char *const lead = p;
    p = scan_digits(p, end, &m, &fits, &count);
    if (count == 0 || (*lead == '0' && count > 1))
        return NULL;
    const char *const integer_end = p;
    if (p < end && *p == '.') {
        p = scan_digits(p + 1, end, &m, &fits, &count);
        if (count == 0)
            return NULL;
        exp10 = -count;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        const int down = ++p < end && *p == '-';
        if (p < end && (*p == '-' || *p == '+'))
            p++;
        int64_t e = 0;
        const char *const from = p;
        for (; p < end && *p >= '0' && *p <= '9'; p++)
            if (e < 100000)
                e = e * 10 + (*p - '0');
        if (p == from)
            return NULL;
        exp10 += down ? -e : e;
    }
    if (p == integer_end || p == end)
        return NULL;
    double v;
    if (fits && m <= (UINT64_C(1) << 53) && exp10 >= -22 && exp10 <= 22) {
        v = exp10 < 0 ? (double)m / POW10[-exp10] : (double)m * POW10[exp10];
        if (negative)
            v = -v;
    } else {
        char *stop;
        v = strtod(start, &stop);
        if (stop != p)
            return NULL;
    }
    if (!(v >= -DBL_MAX && v <= DBL_MAX))
        return NULL;
    *out = v;
    return p;
}

/* Read text[0, len), which need not end in a NUL, as one JSON array of
 * numbers nested at most SCAN_MAX_NDIM deep. Returns its number of
 * dimensions, with their lengths in shape (SCAN_MAX_NDIM entries) and the
 * numbers in out in row-major order; or 0 to decline the whole span. Only
 * JSON whitespace, brackets, commas and numbers with a '.' or an exponent
 * are accepted, every list must be non-empty, and lists at the same depth
 * must have the same length. At most capacity doubles are written: a
 * rectangular array has one comma fewer than it has numbers. */
int64_t hbtm_scan(const char *text, int64_t len, int64_t *shape, double *out, int64_t capacity)
{
    const char *p = text;
    const char *const end = text + len;
    int64_t items[SCAN_MAX_NDIM];
    int64_t depth = 0, ndim = 0, n = 0;
    int after_value = 0;
    for (int64_t d = 0; d < SCAN_MAX_NDIM; d++)
        shape[d] = 0;
    for (;;) {
        while (p < end && is_space(*p))
            p++;
        if (depth == 0 && after_value)
            return p == end ? ndim : 0;
        if (p == end)
            return 0;
        if (!after_value && *p == '[') {
            if (depth == SCAN_MAX_NDIM || (ndim && depth == ndim))
                return 0;
            items[depth++] = 0;
            p++;
        } else if (!after_value) {
            if (depth == 0 || (ndim && depth != ndim) || n == capacity)
                return 0;
            ndim = depth;
            if (!(p = scan_number(p, end, out + n++)))
                return 0;
            items[depth - 1]++;
            after_value = 1;
        } else if (*p == ',') {
            after_value = 0;
            p++;
        } else if (*p == ']') {
            depth--;
            if (shape[depth] == 0)
                shape[depth] = items[depth];
            else if (shape[depth] != items[depth])
                return 0;
            if (depth)
                items[depth - 1]++;
            p++;
        } else {
            return 0;
        }
    }
}


/* Defines double NAME(const double *p, const double *c, int64_t n), the sum of
 * TERM(i) over i in [0, n) in the order numpy adds a contiguous run
 * (pairwise_sum in its loops_utils.h): below 8 terms a running sum from 0; up
 * to 128 terms eight interleaved sums, combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail; above that the sums of
 * two halves, split at a multiple of 8. */
#define PAIRWISE_SUM(NAME, TERM) \
static double NAME(const double *p, const double *c, int64_t n) \
{ \
    if (n < 8) { \
        double s = 0.0; \
        for (int64_t i = 0; i < n; i++) \
            s += TERM(i); \
        return s; \
    } \
    if (n <= 128) { \
        double r[8]; \
        int64_t i; \
        for (int j = 0; j < 8; j++) \
            r[j] = TERM(j); \
        for (i = 8; i < n - n % 8; i += 8) \
            for (int j = 0; j < 8; j++) \
                r[j] += TERM(i + j); \
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])); \
        for (; i < n; i++) \
            s += TERM(i); \
        return s; \
    } \
    int64_t half = n / 2; \
    half -= half % 8; \
    return NAME(p, c, half) + NAME(p + half, c + half, n - half); \
}

/* The squares are summed as they are formed: staging them in a buffer first
 * made the whole Lloyd loop about 1.7x slower. */
#define VALUE(i) (p[i])
#define SQUARED_DIFFERENCE(i) ((p[i] - c[i]) * (p[i] - c[i]))
PAIRWISE_SUM(pairwise_sum, VALUE)  /* p[0, n).sum(); c is passed down, never read */
PAIRWISE_SUM(sq_dist, SQUARED_DIFFERENCE)  /* ((p - c) ** 2).sum() */

/* Each point's nearest centroid, the first on ties (argmin). Distances are
 * never NaN: the points are finite, and a centroid is at worst infinite. */
static void assign(int64_t n, int64_t d, int64_t k, const double *points,
                   const double *centroids, int64_t *labels)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t best = 0;
        double least = sq_dist(points + i * d, centroids, d);
        for (int64_t j = 1; j < k; j++) {
            const double dist = sq_dist(points + i * d, centroids + j * d, d);
            if (dist < least) {
                least = dist;
                best = j;
            }
        }
        labels[i] = best;
    }
}

/* Lloyd iterations on n points of d coordinates from k starting centroids,
 * with analysis._reference_lloyd's floats: labels are assigned, then up to
 * max_iters times each centroid becomes the mean of its members and the
 * labels are reassigned, stopping early once they repeat. A mean is the
 * members' sum row by row from 0, divided by their count; numpy sums a
 * one-coordinate column pairwise instead, so at d = 1 the members are
 * gathered and summed so. A cluster left empty takes the point farthest from
 * its own old centroid (argmax, first on ties).
 *
 * centroids (k x d) and labels (n) hold the result on return. next_centroids
 * (k x d), next_labels (n), counts (k) and work (n) are scratch.
 * Returns the number of iterations run. */
int64_t hbtm_lloyd(int64_t n, int64_t d, int64_t k, int64_t max_iters, const double *points,
                   double *centroids, int64_t *labels, double *next_centroids,
                   int64_t *next_labels, int64_t *counts, double *work)
{
    assign(n, d, k, points, centroids, labels);
    for (int64_t iter = 0; iter < max_iters; iter++) {
        for (int64_t j = 0; j < k * d; j++)
            next_centroids[j] = 0.0;
        for (int64_t j = 0; j < k; j++)
            counts[j] = 0;
        for (int64_t i = 0; i < n; i++) {
            double *sum = next_centroids + labels[i] * d;
            counts[labels[i]]++;
            for (int64_t t = 0; t < d; t++)
                sum[t] += points[i * d + t];
        }
        int64_t farthest = -1;
        for (int64_t j = 0; j < k; j++) {
            double *c = next_centroids + j * d;
            if (counts[j] == 0) {
                if (farthest < 0) {
                    double most = -1.0;
                    for (int64_t i = 0; i < n; i++) {
                        const double dist = sq_dist(points + i * d, centroids + labels[i] * d, d);
                        if (dist > most) {
                            most = dist;
                            farthest = i;
                        }
                    }
                }
                for (int64_t t = 0; t < d; t++)
                    c[t] = points[farthest * d + t];
                continue;
            }
            if (d == 1) {
                int64_t m = 0;
                for (int64_t i = 0; i < n; i++)
                    if (labels[i] == j)
                        work[m++] = points[i];
                c[0] = 0.0 + pairwise_sum(work, work, m);
            }
            for (int64_t t = 0; t < d; t++)
                c[t] /= (double)counts[j];
        }
        assign(n, d, k, points, next_centroids, next_labels);
        int64_t same = 1;
        for (int64_t i = 0; i < n; i++) {
            same &= next_labels[i] == labels[i];
            labels[i] = next_labels[i];
        }
        for (int64_t j = 0; j < k * d; j++)
            centroids[j] = next_centroids[j];
        if (same)
            return iter + 1;
    }
    return max_iters > 0 ? max_iters : 0;
}
