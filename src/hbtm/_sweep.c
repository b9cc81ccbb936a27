/* The eight compiled helpers of hbtm, each with the layer it serves and the
 * Python code whose results it gives bit for bit:
 *
 *   hbtm_sweep    fit: one collapsed-Gibbs sweep (sampler.reference_sweep)
 *   hbtm_gammaln  fit: the log joint's log-gamma terms (scipy.special.gammaln)
 *   hbtm_corpus   fit: reads a corpus file (core.load_corpus's json reader)
 *   hbtm_format   fit: writes a model file's float arrays (json.dumps of tolist())
 *   hbtm_scan     analyze, export-trait: reads a model file's posterior (json.loads)
 *   hbtm_lloyd    analyze: k-means' Lloyd iterations (analysis._reference_lloyd)
 *   hbtm_rows     ingest: reads a raw log's plain lines (ingest's Python reader)
 *   hbtm_tokens   ingest: writes a corpus file's token lists (save_corpus's writer)
 *
 * Every kernel but hbtm_sweep and hbtm_lloyd may decline its input, which
 * that Python code then answers; the kernel's own comment says what it
 * declines. The README's kernel ledger records why each kernel stays.
 *
 * Each kernel returns int64_t and is declared once on the Python side, as a
 * row of sampler._KERNELS giving its parameter types. Adding a kernel takes
 * its prototype here, that row, and a driver in the sanitizer harness of
 * tests/test_tooling.py, which runs every kernel under ASan and UBSan.
 *
 * hbtm_sweep runs one collapsed-Gibbs sweep over flat int64 count tables.
 * It reproduces sampler.reference_sweep bit for bit: each weight is computed
 * in reference_sweep's operation order (numerator left to right, then
 * divided by the three-factor denominator), cum is a sequential running sum,
 * and the trait is bisect_right's index, found by counting the c with
 * cum[c] <= x and clamped to K-1 (see the comment at the count). Build with
 * -ffp-contract=off so no multiply-add is fused.
 *
 * u holds one uniform per token; cum is K doubles of scratch. Returns 0;
 * j + 1 when the weights of flat token j are degenerate (a zero denominator,
 * or a total outside (0, inf)), in which case token j is put back under its
 * old trait so the tables stay consistent; or -(j + 1) when z[j] is not a
 * trait index, before anything is written for token j. Its sanitizer run is
 * test_sweep_kernel_stays_inside_its_buffers_under_address_and_undefined_sanitizers.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
        /* bisect_right(cum, x) as a count with no branch to mispredict. The two
         * are equal because cum never decreases here: a zero denominator and a
         * total outside (0, inf) have both returned above, so every weight was
         * finite and >= 0, given tables that count z as ModelState.audit
         * checks. A hand-corrupted table with a negative cell can make a
         * weight negative and cum decrease, and then the two may differ. */
        const double x = u[j] * total;
        int64_t lo = 0;
        for (int64_t c = 0; c < nk; c++)
            lo += cum[c] <= x;
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

/* *v = m * 10^exp10 through a long double q, for |exp10| <= 27; returns 0,
 * writing nothing, when q is a 53-bit midpoint or long double is not x87's
 * 64-bit mantissa format. See scan_number. */
static int x87_step(uint64_t m, int64_t exp10, double *v)
{
#if LDBL_MANT_DIG == 64 && defined(__x86_64__)
    const int64_t k = exp10 < 0 ? -exp10 : exp10;
    const long double p10 = (long double)POW10[k < 22 ? k : 22] * POW10[k < 22 ? 0 : k - 22];
    const long double q = exp10 < 0 ? (long double)m / p10 : (long double)m * p10;
    uint64_t mantissa;  /* the x87 format keeps its 64-bit mantissa in its first 8 bytes */
    memcpy(&mantissa, &q, sizeof mantissa);
    if ((mantissa & 0x7FF) == 0x400)
        return 0;
    *v = (double)q;
    return 1;
#else
    (void)m, (void)exp10, (void)v;
    return 0;
#endif
}

/* Read the JSON number at p, which must carry a fraction or an exponent, into
 * *out. Returns the byte after it, or NULL to decline: bad grammar, a number
 * that runs to the span's end, or a non-finite value.
 *
 * A mantissa m <= 2^53 with a decimal exponent within +-22 is one IEEE
 * division or product of two exact doubles, so it is correctly rounded
 * (Clinger, PLDI 1990). Any other m that holds every digit (at most 18),
 * with an exponent within +-27, is one x87 long double division or product:
 * m and 10^27 = 2^27 * 5^27 are exact in its 64-bit mantissa, so q is
 * m * 10^exp10 correctly rounded to 64 bits, and q is 0 or in [1e-27, 1e45],
 * far from the doubles' subnormals and overflow. Rounding q to 53 bits gives
 * the correctly rounded double unless q sits on a 53-bit midpoint (its low 11
 * mantissa bits 0x400), where the exact value may lie on either side. Those
 * numbers, every number on a build whose long double is not the x87 format,
 * and all others go to strtod, whose end pointer must land on the number's
 * end: in a locale whose decimal point is not '.', it stops short and the
 * span is declined. strtod never reads past end, because the byte after the
 * number is inside the span and cannot extend it. */
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
    } else if (fits && exp10 >= -27 && exp10 <= 27 && x87_step(m, exp10, &v)) {
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

/* Read the JSON array of numbers at the start of text[0, len), which need not
 * end in a NUL, nested at most SCAN_MAX_NDIM deep; JSON whitespace may come
 * before it. Returns its number of dimensions, with their lengths in shape
 * (SCAN_MAX_NDIM entries), the numbers in out in row-major order, and in
 * *used the offset just past the bracket that closes it; or 0 to decline.
 * The bytes after that bracket are not read: the caller decides what may
 * follow. Only JSON whitespace, brackets, commas and numbers with a '.' or
 * an exponent are accepted, every list must be non-empty, and lists at the
 * same depth must have the same length. At most capacity doubles are
 * written, and an array with more numbers is declined. */
int64_t hbtm_scan(const char *text, int64_t len, int64_t *shape, double *out, int64_t capacity,
                  int64_t *used)
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
            p++;
            if (depth == 0) {
                *used = p - text;
                return ndim;
            }
            items[depth - 1]++;
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


enum { ROW_DECLINED = 0, ROW_OK = 1, ROW_BLANK = 2 };
enum { ROW_COLUMNS = 6 };  /* status, session, student and activity text ids, two count sums */

/* The value of the n ASCII digits at p into *value; 0 if any byte is no digit. */
static int read_digits(const char *p, int64_t n, int64_t *value)
{
    int64_t v = 0;
    for (int64_t i = 0; i < n; i++) {
        if (p[i] < '0' || p[i] > '9')
            return 0;
        v = v * 10 + (p[i] - '0');
    }
    *value = v;
    return 1;
}

/* [*lo, *hi) narrowed past the spaces at both ends. */
static void trim(const char **lo, const char **hi)
{
    while (*lo < *hi && **lo == ' ')
        (*lo)++;
    while (*hi > *lo && (*hi)[-1] == ' ')
        (*hi)--;
}

/* Proleptic Gregorian days from 1970-01-01 to y-m-d, y >= 1 (Hinnant's days_from_civil). */
static int64_t days_from_civil(int64_t y, int64_t m, int64_t d)
{
    y -= m <= 2;
    const int64_t era = y / 400, yoe = y - era * 400;
    const int64_t doy = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
    return era * 146097 + yoe * 365 + yoe / 4 - yoe / 100 + doy - 719468;
}

/* The epoch seconds of the stamp [p, end), space-trimmed, into *out, if it is
 * exactly dd.mm.yyyy HH:MM:SS or dd/mm/yyyy HH:MM:SS with a valid date in
 * years 1-9999, a clock below 24:00 and seconds 00-59. Every term is an
 * integer below 2^53, so the double equals the one ingest._epoch gives. */
static int read_stamp(const char *p, const char *end, double *out)
{
    static const int64_t DAYS[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
    int64_t d, m, y, hh, mm, ss;
    trim(&p, &end);
    if (end - p != 19 || (p[2] != '.' && p[2] != '/') || p[5] != p[2] || p[10] != ' '
        || p[13] != ':' || p[16] != ':'
        || !read_digits(p, 2, &d) || !read_digits(p + 3, 2, &m) || !read_digits(p + 6, 4, &y)
        || !read_digits(p + 11, 2, &hh) || !read_digits(p + 14, 2, &mm)
        || !read_digits(p + 17, 2, &ss))
        return 0;
    const int leap = y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
    if (y < 1 || m < 1 || m > 12 || d < 1 || d > DAYS[m - 1] + (m == 2 && leap)
        || hh > 23 || mm > 59 || ss > 59)
        return 0;
    *out = (double)(days_from_civil(y, m, d) * 86400 + hh * 3600 + mm * 60 + ss);
    return 1;
}

/* The distinct texts of one hbtm_rows call: an open-addressing table of ids
 * (mask + 1 slots, -1 when empty) and each id's [lo, hi) offsets in text. */
typedef struct {
    const char *text;
    int64_t *slots, mask, *bounds, count;
} Texts;

/* The id of the text [lo, hi); a new text takes the next id. */
static int64_t text_id(Texts *t, const char *lo, const char *hi)
{
    uint64_t h = UINT64_C(14695981039346656037);  /* FNV-1a */
    for (const char *q = lo; q < hi; q++)
        h = (h ^ (unsigned char)*q) * UINT64_C(1099511628211);
    for (int64_t s = (int64_t)(h & (uint64_t)t->mask);; s = (s + 1) & t->mask) {
        const int64_t id = t->slots[s];
        if (id < 0) {
            t->slots[s] = t->count;
            t->bounds[2 * t->count] = lo - t->text;
            t->bounds[2 * t->count + 1] = hi - t->text;
            return t->count++;
        }
        const char *seen = t->text + t->bounds[2 * id];
        if (t->text + t->bounds[2 * id + 1] - seen == hi - lo) {
            int64_t i = 0;
            while (i < hi - lo && seen[i] == lo[i])
                i++;
            if (i == hi - lo)
                return id;
        }
    }
}

/* The status of the line [p, eol), without its newline; for an answered row
 * its values go to row[1..ROW_COLUMNS) and stamp[0..2). */
static int64_t read_row(Texts *texts, const char *p, const char *eol, int64_t need,
                        int64_t max_line, const int64_t *columns, int64_t n_counts,
                        int64_t n_mouse, const char **fields, int64_t *row, double *stamp)
{
    if (p == eol)
        return ROW_BLANK;
    if (eol - p > max_line)
        return ROW_DECLINED;
    int64_t f = 0;
    const char *from = p;
    for (const char *q = p;; q++) {
        if (q == eol || *q == ',') {
            if (f < need) {
                fields[2 * f] = from;
                fields[2 * f + 1] = q;
            }
            f++;
            if (q == eol)
                break;
            from = q + 1;
        } else if ((unsigned char)*q < 0x20 || (unsigned char)*q >= 0x7f || *q == '"') {
            return ROW_DECLINED;
        }
    }
    if (f < need)
        return ROW_DECLINED;
    for (int64_t c = 0; c < 2; c++)
        if (!read_stamp(fields[2 * columns[3 + c]], fields[2 * columns[3 + c] + 1], stamp + c))
            return ROW_DECLINED;
    if (stamp[1] < stamp[0])
        return ROW_DECLINED;
    for (int64_t c = 0; c < n_counts; c++) {
        const char *lo = fields[2 * columns[5 + c]], *hi = fields[2 * columns[5 + c] + 1];
        int64_t value, *sum = row + (c < n_mouse ? 4 : 5);
        trim(&lo, &hi);
        if (hi - lo < 1 || hi - lo > 15 || !read_digits(lo, hi - lo, &value)
            || *sum > INT64_MAX - value)
            return ROW_DECLINED;
        *sum += value;
    }
    for (int64_t c = 0; c < 3; c++) {
        const char *lo = fields[2 * columns[c]], *hi = fields[2 * columns[c] + 1];
        trim(&lo, &hi);
        row[1 + c] = text_id(texts, lo, hi);
    }
    return ROW_OK;
}

/* Read the lines of text[0, len), each ending in '\n' but perhaps the last,
 * as raw-log body rows split on ','; a '\r' just before a line's '\n' is part
 * of its line end, not of the row. A row is answered (ROW_OK) only with
 * the values ingest's Python reader gives it; an empty line is ROW_BLANK,
 * and every other row is declined (ROW_DECLINED) for Python to classify: a
 * line longer than max_line or holding a byte below 0x20, at or above 0x7f,
 * or a '"'; fewer than need fields; a stamp outside read_stamp's form; end
 * before start; or a count that is not 1-15 ASCII digits with optional
 * spaces around them, or whose group sum leaves int64.
 *
 * columns holds the field indices, each below need, of the session,
 * student, activity, start and end, then of n_counts count columns, of which
 * the first n_mouse are summed as mouse clicks and the rest as keystrokes.
 * fields (2 * need pointers) and slots (n_slots, a power of two above
 * 3 * capacity) are scratch.
 *
 * For at most capacity lines, rows holds ROW_COLUMNS arrays of capacity
 * int64: the status; the session, student and activity, space-trimmed, as
 * text ids; and the two count sums. stamps holds two arrays of capacity
 * doubles: the start and end epoch seconds. A line not answered has text ids
 * -1 and zero sums and stamps. Text ids count the distinct texts in order of first
 * occurrence; bounds (2 * 3 * capacity) receives each one's [lo, hi) byte
 * offsets. ends (capacity int64) receives the byte offset just past each
 * line's '\n', or len for a last line without one, so that line n is
 * text[ends[n - 1], ends[n]). Returns the number of distinct texts, or -1 if
 * n_slots is not a power of two above 3 * capacity. */
int64_t hbtm_rows(const char *text, int64_t len, int64_t need, int64_t max_line,
                  const int64_t *columns, int64_t n_counts, int64_t n_mouse, const char **fields,
                  int64_t capacity, int64_t *slots, int64_t n_slots, int64_t *bounds,
                  int64_t *rows, double *stamps, int64_t *ends)
{
    if (n_slots <= 3 * capacity || (n_slots & (n_slots - 1)) != 0)
        return -1;
    for (int64_t s = 0; s < n_slots; s++)
        slots[s] = -1;
    Texts texts = {text, slots, n_slots - 1, bounds, 0};
    const char *p = text;
    const char *const stop = text + len;
    for (int64_t n = 0; p < stop && n < capacity; n++) {
        const char *eol = p;
        while (eol < stop && *eol != '\n')
            eol++;
        int64_t row[ROW_COLUMNS] = {0, -1, -1, -1, 0, 0};
        double stamp[2] = {0.0, 0.0};
        const char *const last = eol < stop && eol > p && eol[-1] == '\r' ? eol - 1 : eol;
        row[0] = read_row(&texts, p, last, need, max_line, columns, n_counts, n_mouse,
                          fields, row, stamp);
        if (row[0] != ROW_OK) {
            row[4] = row[5] = 0;
            stamp[0] = stamp[1] = 0.0;
        }
        for (int64_t c = 0; c < ROW_COLUMNS; c++)
            rows[c * capacity + n] = row[c];
        stamps[n] = stamp[0];
        stamps[capacity + n] = stamp[1];
        p = eol < stop ? eol + 1 : stop;
        ends[n] = p - text;
    }
    return texts.count;
}

/* hbtm_format's range: nonzero doubles with 2^-49 <= |v| < 2^126, whose
 * arithmetic fits 128 bits, by biased exponent. */
enum { FORMAT_MIN_EXP = 974, FORMAT_MAX_EXP = 1148 };
enum { FORMAT_MAX_CHARS = 24 };  /* "-2.2250738585072014e-308", the longest repr */

typedef unsigned __int128 u128;

typedef struct {
    u128 pow5[32];   /* 5^a for a <= 31 */
    u128 pow10[39];  /* 10^j for j <= 38 */
} Powers;

/* floor(x log10(2)) for |x| <= 1650: Ryu's log10Pow2 (Adams, PLDI 2018),
 * rounded down for negative x too. */
static int floor_log10_pow2(int x)
{
    const int64_t n = (int64_t)x * 78913;
    return (int)(n >= 0 ? n >> 18 : -((-n + 262143) >> 18));
}

/* floor(x 2^e2 / 10^j) for x < 2^56 and the (e2, j) that format_double
 * passes, where every term fits 128 bits; *exact says whether the quotient
 * is exact. Below 1, 10^j is 5^j 2^j, and the division is a shift. */
static uint64_t scaled(uint64_t x, int e2, int j, const Powers *pw, int *exact)
{
    u128 num = x, den = 1;
    int b = e2;
    if (j < 0) {
        num *= pw->pow5[-j];
        b -= j;
    } else {
        den = pw->pow10[j];
    }
    if (b >= 0) {
        num <<= b;
    } else if (j <= 0) {
        *exact = (num & (((u128)1 << -b) - 1)) == 0;
        return (uint64_t)(num >> -b);
    } else {
        den <<= -b;
    }
    *exact = num % den == 0;
    return (uint64_t)(num / den);
}

/* Write float.__repr__(v) at p; return its end, or NULL to decline a v that
 * is not zero and outside FORMAT_MIN_EXP..FORMAT_MAX_EXP (NaN and inf
 * included).
 *
 * v = m 2^e is written as the shortest decimal c 10^j that reads back as v,
 * and of those the nearest to v (Steele & White, PLDI 1990), as dtoa's mode
 * 0 does. What reads back as v lies between v's midpoints with its
 * neighbours, ends included when m is even (reading rounds half to even). In
 * units of 2^(e-2) the ends are 4m - 2 (4m - 1 at a power of two, whose lower
 * neighbour is nearer) and 4m + 2. The candidates [lo, hi] inside are
 * counted exactly at 10^j <= 2^(e-1), where there is at least one; each step
 * up a power of ten keeps the multiples of ten among them while any remain.
 * The nearest of the last ones is v rounded at 10^j, half to even as dtoa
 * rounds its last digit (15853097491924.0625 is ...924.062), then clamped
 * into [lo, hi]. repr writes the digits in fixed notation when the decimal
 * point falls after digit -4 and at most 16 digits in. */
static char *format_double(double v, const Powers *pw, char *p)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    const int biased = (int)(bits >> 52 & 0x7ff);
    const uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    if (biased == 0 && frac == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    if (biased < FORMAT_MIN_EXP || biased > FORMAT_MAX_EXP)
        return NULL;
    const uint64_t m = frac | UINT64_C(1) << 52;
    const int e2 = biased - 1077, inclusive = (m & 1) == 0;
    int j = floor_log10_pow2(e2 + 1), exact;
    uint64_t lo = scaled(4 * m - 1 - (frac != 0), e2, j, pw, &exact);
    lo += !(exact && inclusive);
    uint64_t hi = scaled(4 * m + 2, e2, j, pw, &exact);
    hi -= exact && !inclusive;
    while ((lo + 9) / 10 <= hi / 10) {
        lo = (lo + 9) / 10;
        hi /= 10;
        j++;
    }
    const uint64_t twice = scaled(8 * m, e2, j, pw, &exact);  /* floor(2v / 10^j) */
    uint64_t c = twice / 2 + ((twice & 1) && (!exact || (twice / 2 & 1)));
    c = c < lo ? lo : c > hi ? hi : c;

    char digits[20];
    int n = 0;
    for (; c; c /= 10)
        digits[19 - n++] = (char)('0' + c % 10);
    const char *const d = digits + 20 - n;
    const int point = n + j;  /* digits before the decimal point */
    if (point > -4 && point <= 16) {
        if (point <= 0) {  /* 0.00ddd */
            memcpy(p, "0.", 2);
            memset(p + 2, '0', (size_t)-point);
            memcpy(p + 2 - point, d, (size_t)n);
            return p + 2 - point + n;
        }
        if (point < n) {  /* dd.ddd */
            memcpy(p, d, (size_t)point);
            p[point] = '.';
            memcpy(p + point + 1, d + point, (size_t)(n - point));
            return p + n + 1;
        }
        memcpy(p, d, (size_t)n);  /* ddd00.0 */
        memset(p + n, '0', (size_t)(point - n));
        memcpy(p + point, ".0", 2);
        return p + point + 2;
    }
    *p++ = d[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, d + 1, (size_t)(n - 1));
        p += n - 1;
    }
    const int x = point - 1;  /* |x| < 100 in the range */
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    *p++ = (char)('0' + abs(x) / 10);
    *p++ = (char)('0' + abs(x) % 10);
    return p;
}

/* Write the list of shape[0] items at *x, nested ndim deep, as json.dumps
 * with indent=2 lays it out level deep; return its end, or NULL to decline.
 * *x moves past the numbers written. */
static char *format_list(const double **x, const int64_t *shape, int64_t ndim, int64_t level,
                         const Powers *pw, char *p, const char *end)
{
    const int64_t indent = 2 * (level + 1);
    for (int64_t i = 0; i < shape[0]; i++) {
        if (end - p < 2 + indent)
            return NULL;
        *p++ = i ? ',' : '[';
        *p++ = '\n';
        memset(p, ' ', (size_t)indent);
        p += indent;
        if (ndim > 1) {
            if (!(p = format_list(x, shape + 1, ndim - 1, level + 1, pw, p, end)))
                return NULL;
            continue;
        }
        char text[FORMAT_MAX_CHARS];
        const char *const stop = format_double(*(*x)++, pw, text);
        if (stop == NULL || end - p < stop - text)
            return NULL;
        memcpy(p, text, (size_t)(stop - text));
        p += stop - text;
    }
    if (end - p < indent)  /* '\n', 2 * level spaces, ']' */
        return NULL;
    *p++ = '\n';
    memset(p, ' ', (size_t)(indent - 2));
    p += indent - 2;
    *p++ = ']';
    return p;
}

/* Write the C-contiguous array x of the given shape (ndim <= SCAN_MAX_NDIM,
 * no length 0) as the text json.dumps(x.tolist(), indent=2) gives it level
 * deep in a document: every number spelled as float.__repr__ spells it; see
 * format_double. Returns the number of bytes written to out, or 0 to decline
 * the whole array: a number outside format_double's range, a bad shape or
 * level, or fewer than the bytes needed in capacity. */
int64_t hbtm_format(const double *x, int64_t ndim, const int64_t *shape, int64_t level,
                    char *out, int64_t capacity)
{
    if (ndim < 1 || ndim > SCAN_MAX_NDIM || level < 0 || level > capacity)
        return 0;
    for (int64_t d = 0; d < ndim; d++)
        if (shape[d] < 1)
            return 0;
    Powers pw;
    pw.pow5[0] = pw.pow10[0] = 1;
    for (int a = 1; a < 32; a++)
        pw.pow5[a] = pw.pow5[a - 1] * 5;
    for (int j = 1; j < 39; j++)
        pw.pow10[j] = pw.pow10[j - 1] * 10;
    const char *const end = format_list(&x, shape, ndim, level, &pw, out, out + capacity);
    return end ? end - out : 0;
}

/* Cephes' lgam (Moshier, Cephes Math Library 2.8; the one scipy.special.gammaln
 * runs for real x), restricted to 0 < x <= DBL_MAX, with its constants and
 * its operation order, so each value equals scipy's bit for bit. Below 13 the
 * argument is moved into [2, 3) by the recurrence and the B/C rational gives
 * the rest; above, Stirling's series, with the A polynomial below 1000, three
 * terms below 1e8 and none above. */
static const double LGAM_A[] = {
    8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
    -2.77777777730099687205E-3, 8.33333333333331927722E-2,
};
static const double LGAM_B[] = {
    -1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
    -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5,
};
static const double LGAM_C[] = {  /* monic: the leading 1 is p1evl's */
    -3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
    -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6,
};
static const double LS2PI = 0.91893853320467274178;  /* log(sqrt(2 pi)) */
static const double MAXLGM = 2.556348e305;           /* lgam overflows above */

/* coef[0] x^n + ... + coef[n], by Horner's rule */
static double polevl(double x, const double *coef, int n)
{
    double ans = coef[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + coef[i];
    return ans;
}

/* x^n + coef[0] x^(n-1) + ... + coef[n-1], by Horner's rule */
static double p1evl(double x, const double *coef, int n)
{
    double ans = x + coef[0];
    for (int i = 1; i < n; i++)
        ans = ans * x + coef[i];
    return ans;
}

static double lgam(double x)
{
    if (x < 13.0) {
        double z = 1.0, p = 0.0, u = x;
        while (u >= 3.0) {
            p -= 1.0;
            u = x + p;
            z *= u;
        }
        while (u < 2.0) {
            z /= u;
            p += 1.0;
            u = x + p;
        }
        if (u == 2.0)
            return log(z);
        p -= 2.0;
        x = x + p;
        return log(z) + x * polevl(x, LGAM_B, 5) / p1evl(x, LGAM_C, 6);
    }
    if (x > MAXLGM)
        return HUGE_VAL;
    double q = (x - 0.5) * log(x) - x + LS2PI;
    if (x > 1.0e8)
        return q;
    const double p = 1.0 / (x * x);
    if (x >= 1000.0)
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x;
    return q + polevl(p, LGAM_A, 4) / x;
}

/* out[j] = log|Gamma(x[j])| for j < n, as scipy.special.gammaln gives it;
 * out may be x. Returns 0, or j + 1 to decline element j, which is not
 * positive or not finite (lgam's poles and its reflection branch are scipy's
 * to answer); out[0..j) is written by then. */
int64_t hbtm_gammaln(const double *x, int64_t n, double *out)
{
    for (int64_t j = 0; j < n; j++) {
        if (!(x[j] > 0.0 && x[j] <= DBL_MAX))
            return j + 1;
        out[j] = lgam(x[j]);
    }
    return 0;
}

/* The byte after the literal lit at p, or NULL if [p, end) does not start with it. */
#define EXPECT(p, end, lit) \
    ((p) && (end) - (p) >= (int64_t)sizeof(lit) - 1 && memcmp((p), (lit), sizeof(lit) - 1) == 0 \
     ? (p) + sizeof(lit) - 1 : NULL)

/* The token component at p, 0|[1-9][0-9]{0,17} (so an int64 holds it), into
 * *value; the byte after it, or NULL for any other text. p may be NULL. */
static const char *read_component(const char *p, const char *end, int64_t *value)
{
    if (!p || p == end || *p < '0' || *p > '9')
        return NULL;
    const char *const from = p;
    int64_t v = 0;
    do
        v = v * 10 + (*p++ - '0');
    while (v && p < end && *p >= '0' && *p <= '9' && p - from < 18);
    if (p < end && *p >= '0' && *p <= '9')  /* a leading zero, or a 19th digit */
        return NULL;
    *value = v;
    return p;
}

/* Read a whole corpus file text[0, len) whose every line is exactly what
 * core.save_corpus writes for a trace of ASCII id:
 *
 *     {"tokens":[[e,t,i],[e,t,i],...],"trace_id":"id"}\n
 *
 * with at least one token, each component 0|[1-9][0-9]{0,17}, an id of bytes
 * 0x20-0x7e other than '"' and '\', and '\n' after every line, the last one
 * included. For line m, lengths[m] is its token count and ids[2m], ids[2m + 1]
 * its id's [lo, hi) byte offsets; codes receives each token's three
 * components in file order. lengths takes max_lines int64, ids 2 * max_lines
 * and codes 3 * max_tokens.
 *
 * Returns the number of lines, at least 1; or 0 to decline the whole file,
 * for core.load_corpus's Python reader to read: an empty file, a line in any
 * other form, more than max_lines lines or more than max_tokens tokens. */
int64_t hbtm_corpus(const char *text, int64_t len, int64_t max_lines, int64_t max_tokens,
                    int64_t *lengths, int64_t *ids, int64_t *codes)
{
    const char *p = text;
    const char *const end = text + len;
    int64_t lines = 0, tokens = 0;
    while (p < end) {
        if (lines == max_lines || !(p = EXPECT(p, end, "{\"tokens\":[")))
            return 0;
        const int64_t first = tokens;
        for (;;) {
            if (tokens == max_tokens)
                return 0;
            int64_t *const code = codes + 3 * tokens++;
            p = read_component(EXPECT(p, end, "["), end, code);
            p = read_component(EXPECT(p, end, ","), end, code + 1);
            p = read_component(EXPECT(p, end, ","), end, code + 2);
            p = EXPECT(p, end, "]");
            if (!p || p == end || *p != ',')
                break;
            p++;
        }
        if (!(p = EXPECT(p, end, "],\"trace_id\":\"")))
            return 0;
        ids[2 * lines] = p - text;
        while (p < end && *p != '"') {
            if ((unsigned char)*p < 0x20 || (unsigned char)*p >= 0x7f || *p == '\\')
                return 0;
            p++;
        }
        ids[2 * lines + 1] = p - text;
        if (!(p = EXPECT(p, end, "\"}\n")))
            return 0;
        lengths[lines++] = tokens - first;
    }
    return lines;
}

/* The decimal text of v at p, if it fits before end; the byte after it, or
 * NULL. p may be NULL. INT64_MIN is spelled from its unsigned magnitude. */
static char *write_component(char *p, const char *end, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int64_t n = 1 + (v < 0);
    for (uint64_t rest = u; rest >= 10; rest /= 10)
        n++;
    if (!p || end - p < n)
        return NULL;
    if (v < 0)
        *p = '-';
    char *d = p + n;
    do
        *--d = (char)('0' + u % 10);
    while (u /= 10);
    return p + n;
}

/* The byte c at p, if it fits before end; the byte after it, or NULL. */
static char *write_byte(char *p, const char *end, char c)
{
    if (!p || p == end)
        return NULL;
    *p = c;
    return p + 1;
}

/* Write the tokens of n traces as core.save_corpus spells them inside a
 * line's token list: [e,t,i],[e,t,i],... for each trace, every component in
 * decimal, with no spaces. lengths[m] is trace m's token count, and codes
 * holds the three components of each token, 3 * sum(lengths) int64 in trace
 * order; every length is at least 0. ends[m] receives the offset in out just
 * past trace m's text, so trace m's text is out[ends[m - 1], ends[m]) (from
 * 0 for the first); a trace of no tokens writes nothing. out takes capacity
 * bytes, ends n int64.
 *
 * Returns 1; or 0 to decline, for core.save_corpus's Python writer to write
 * the corpus, when the text does not fit in out. */
int64_t hbtm_tokens(int64_t n, const int64_t *lengths, const int64_t *codes, char *out,
                    int64_t capacity, int64_t *ends)
{
    char *p = out;
    const char *const end = out + capacity;
    for (int64_t m = 0; m < n; m++) {
        for (int64_t j = 0; j < lengths[m]; j++, codes += 3) {
            if (j)
                p = write_byte(p, end, ',');
            p = write_byte(p, end, '[');
            p = write_component(p, end, codes[0]);
            p = write_byte(p, end, ',');
            p = write_component(p, end, codes[1]);
            p = write_byte(p, end, ',');
            p = write_component(p, end, codes[2]);
            p = write_byte(p, end, ']');
        }
        if (!p)
            return 0;
        ends[m] = p - out;
    }
    return 1;
}
