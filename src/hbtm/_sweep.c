/* One collapsed-Gibbs sweep over flat int64 count tables.
 *
 * Reproduces sampler.reference_sweep bit for bit: each weight is computed in
 * reference_sweep's operation order (numerator left to right, then divided
 * by the three-factor denominator), cum is a sequential running sum, and the
 * trait is picked with bisect_right's own binary search, clamped to K-1.
 * Build with -ffp-contract=off so no multiply-add is fused.
 *
 * u holds one uniform per token; cum is K doubles of scratch. Returns 0;
 * j + 1 when the weights of flat token j are degenerate (a zero denominator,
 * or a total outside (0, inf)), in which case token j is put back under its
 * old trait so the tables stay consistent; or -(j + 1) when z[j] is not a
 * trait index, before anything is written for token j.
 */
#include <float.h>
#include <stdint.h>

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
