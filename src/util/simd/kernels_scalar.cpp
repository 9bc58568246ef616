/// Scalar reference kernels. These spell out the canonical 4-logical-lane
/// semantics the SSE2 set must reproduce bit-for-bit, and are the kernel
/// set of builds that do not target SSE2. The TU is compiled with
/// -ffp-contract=off so no multiply-add is fused.

#include <cmath>

#include "util/simd/simd.h"

namespace wnet::util::simd {
namespace {

double gather_dot(const int32_t* rows, const double* values, int n,
                  const double* dense) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes[0] += values[i] * dense[rows[i]];
    lanes[1] += values[i + 1] * dense[rows[i + 1]];
    lanes[2] += values[i + 2] * dense[rows[i + 2]];
    lanes[3] += values[i + 3] * dense[rows[i + 3]];
  }
  for (int l = 0; i < n; ++i, ++l) lanes[l] += values[i] * dense[rows[i]];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

void scatter_axpy(const int32_t* rows, const double* values, int n,
                  double scale, double* dense) {
  for (int i = 0; i < n; ++i) dense[rows[i]] += scale * values[i];
}

void dense_axpy(double* y, const double* x, double a, int n) {
  for (int i = 0; i < n; ++i) y[i] += a * x[i];
}

void row_activity(const int32_t* cols, const double* coef, int n,
                  const double* lb, const double* ub, double* act_lo,
                  double* act_hi) {
  double lo[4] = {0.0, 0.0, 0.0, 0.0};
  double hi[4] = {0.0, 0.0, 0.0, 0.0};
  // MINPD selection rule: min(x, y) = x < y ? x : y (second operand on
  // ties), symmetric for max. Matches _mm_min_pd.
  const auto term = [&](int i, double* lo_lane, double* hi_lane) {
    const double pl = coef[i] * lb[cols[i]];
    const double pu = coef[i] * ub[cols[i]];
    *lo_lane += pl < pu ? pl : pu;
    *hi_lane += pl > pu ? pl : pu;
  };
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    term(i, &lo[0], &hi[0]);
    term(i + 1, &lo[1], &hi[1]);
    term(i + 2, &lo[2], &hi[2]);
    term(i + 3, &lo[3], &hi[3]);
  }
  for (int l = 0; i < n; ++i, ++l) term(i, &lo[l], &hi[l]);
  *act_lo = (lo[0] + lo[2]) + (lo[1] + lo[3]);
  *act_hi = (hi[0] + hi[2]) + (hi[1] + hi[3]);
}

void segment_classify(double sax, double say, double sbx, double sby,
                      const double* wax, const double* way, const double* wbx,
                      const double* wby, int n, double eps, uint8_t* out) {
  // Link direction and its length are loop constants.
  const double dlx = sbx - sax;
  const double dly = sby - say;
  const double nl = std::sqrt(dlx * dlx + dly * dly);
  for (int i = 0; i < n; ++i) {
    const double ax = wax[i], ay = way[i], bx = wbx[i], by = wby[i];
    // o1 = orientation(s.a, s.b, w.a), o2 = orientation(s.a, s.b, w.b)
    const double r1x = ax - sax, r1y = ay - say;
    const double r2x = bx - sax, r2y = by - say;
    const double c1 = dlx * r1y - dly * r1x;
    const double c2 = dlx * r2y - dly * r2x;
    const double n1 = std::sqrt(r1x * r1x + r1y * r1y);
    const double n2 = std::sqrt(r2x * r2x + r2y * r2y);
    // o3 = orientation(w.a, w.b, s.a), o4 = orientation(w.a, w.b, s.b)
    const double dwx = bx - ax, dwy = by - ay;
    const double r3x = sax - ax, r3y = say - ay;
    const double r4x = sbx - ax, r4y = sby - ay;
    const double c3 = dwx * r3y - dwy * r3x;
    const double c4 = dwx * r4y - dwy * r4x;
    const double nw = std::sqrt(dwx * dwx + dwy * dwy);
    const double n3 = std::sqrt(r3x * r3x + r3y * r3y);
    const double n4 = std::sqrt(r4x * r4x + r4y * r4y);
    // scale = max(max(1, |dir|), |rel|) with MAXPD selection order.
    const auto scale_of = [](double dir_n, double rel_n) {
      const double m = 1.0 > dir_n ? 1.0 : dir_n;
      return m > rel_n ? m : rel_n;
    };
    const double t1 = eps * scale_of(nl, n1);
    const double t2 = eps * scale_of(nl, n2);
    const double t3 = eps * scale_of(nw, n3);
    const double t4 = eps * scale_of(nw, n4);
    const bool g1 = c1 > t1, l1 = c1 < -t1;
    const bool g2 = c2 > t2, l2 = c2 < -t2;
    const bool g3 = c3 > t3, l3 = c3 < -t3;
    const bool g4 = c4 > t4, l4 = c4 < -t4;
    const bool zero_any = (!g1 && !l1) || (!g2 && !l2) || (!g3 && !l3) || (!g4 && !l4);
    const bool diff12 = (g1 && l2) || (l1 && g2);
    const bool diff34 = (g3 && l4) || (l3 && g4);
    out[i] = zero_any ? uint8_t{2} : (diff12 && diff34 ? uint8_t{1} : uint8_t{0});
  }
}

void pair_distances(const double* xs, const double* ys, int n, double x0,
                    double y0, double* out) {
  for (int i = 0; i < n; ++i) {
    const double dx = xs[i] - x0;
    const double dy = ys[i] - y0;
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

}  // namespace

namespace detail {
const Kernels kScalarKernels = {
    gather_dot, scatter_axpy, dense_axpy, row_activity, segment_classify,
    pair_distances,
};
}  // namespace detail

}  // namespace wnet::util::simd
