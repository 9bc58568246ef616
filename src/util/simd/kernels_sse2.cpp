/// SSE2 kernels: the set of every build that targets SSE2 (the x86-64
/// baseline). Four logical lanes are carried in two 128-bit registers:
/// {lane0, lane1} and {lane2, lane3}, reduced as (lane0 + lane2) +
/// (lane1 + lane3), matching the scalar reference bit-for-bit. Compiled
/// with -ffp-contract=off; SSE2 has no FMA, so every multiply-add is two
/// roundings by construction.

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cmath>

#include "util/simd/simd.h"

namespace wnet::util::simd {
namespace {

inline __m128d neg(__m128d x) {
  const __m128d sign = _mm_castsi128_pd(_mm_set_epi32(0x80000000, 0, 0x80000000, 0));
  return _mm_xor_pd(x, sign);
}

double gather_dot(const int32_t* rows, const double* values, int n,
                  const double* dense) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d d01 = _mm_set_pd(dense[rows[i + 1]], dense[rows[i]]);
    const __m128d d23 = _mm_set_pd(dense[rows[i + 3]], dense[rows[i + 2]]);
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(values + i), d01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(_mm_loadu_pd(values + i + 2), d23));
  }
  double lanes[4];
  _mm_storeu_pd(lanes, acc01);
  _mm_storeu_pd(lanes + 2, acc23);
  for (int l = 0; i < n; ++i, ++l) lanes[l] += values[i] * dense[rows[i]];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

void scatter_axpy(const int32_t* rows, const double* values, int n,
                  double scale, double* dense) {
  const __m128d s = _mm_set1_pd(scale);
  int i = 0;
  double prod[4];
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_pd(prod, _mm_mul_pd(s, _mm_loadu_pd(values + i)));
    _mm_storeu_pd(prod + 2, _mm_mul_pd(s, _mm_loadu_pd(values + i + 2)));
    dense[rows[i]] += prod[0];
    dense[rows[i + 1]] += prod[1];
    dense[rows[i + 2]] += prod[2];
    dense[rows[i + 3]] += prod[3];
  }
  for (; i < n; ++i) dense[rows[i]] += scale * values[i];
}

void dense_axpy(double* y, const double* x, double a, int n) {
  const __m128d s = _mm_set1_pd(a);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d y01 = _mm_add_pd(_mm_loadu_pd(y + i), _mm_mul_pd(s, _mm_loadu_pd(x + i)));
    const __m128d y23 =
        _mm_add_pd(_mm_loadu_pd(y + i + 2), _mm_mul_pd(s, _mm_loadu_pd(x + i + 2)));
    _mm_storeu_pd(y + i, y01);
    _mm_storeu_pd(y + i + 2, y23);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void row_activity(const int32_t* cols, const double* coef, int n,
                  const double* lb, const double* ub, double* act_lo,
                  double* act_hi) {
  __m128d lo01 = _mm_setzero_pd(), lo23 = _mm_setzero_pd();
  __m128d hi01 = _mm_setzero_pd(), hi23 = _mm_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d a01 = _mm_loadu_pd(coef + i);
    const __m128d a23 = _mm_loadu_pd(coef + i + 2);
    const __m128d lb01 = _mm_set_pd(lb[cols[i + 1]], lb[cols[i]]);
    const __m128d lb23 = _mm_set_pd(lb[cols[i + 3]], lb[cols[i + 2]]);
    const __m128d ub01 = _mm_set_pd(ub[cols[i + 1]], ub[cols[i]]);
    const __m128d ub23 = _mm_set_pd(ub[cols[i + 3]], ub[cols[i + 2]]);
    const __m128d pl01 = _mm_mul_pd(a01, lb01), pu01 = _mm_mul_pd(a01, ub01);
    const __m128d pl23 = _mm_mul_pd(a23, lb23), pu23 = _mm_mul_pd(a23, ub23);
    lo01 = _mm_add_pd(lo01, _mm_min_pd(pl01, pu01));
    lo23 = _mm_add_pd(lo23, _mm_min_pd(pl23, pu23));
    hi01 = _mm_add_pd(hi01, _mm_max_pd(pl01, pu01));
    hi23 = _mm_add_pd(hi23, _mm_max_pd(pl23, pu23));
  }
  double lo[4], hi[4];
  _mm_storeu_pd(lo, lo01);
  _mm_storeu_pd(lo + 2, lo23);
  _mm_storeu_pd(hi, hi01);
  _mm_storeu_pd(hi + 2, hi23);
  for (int l = 0; i < n; ++i, ++l) {
    const double pl = coef[i] * lb[cols[i]];
    const double pu = coef[i] * ub[cols[i]];
    lo[l] += pl < pu ? pl : pu;
    hi[l] += pl > pu ? pl : pu;
  }
  *act_lo = (lo[0] + lo[2]) + (lo[1] + lo[3]);
  *act_hi = (hi[0] + hi[2]) + (hi[1] + hi[3]);
}

void segment_classify(double sax, double say, double sbx, double sby,
                      const double* wax, const double* way, const double* wbx,
                      const double* wby, int n, double eps, uint8_t* out) {
  const double dlx = sbx - sax;
  const double dly = sby - say;
  const double nl = std::sqrt(dlx * dlx + dly * dly);
  const __m128d vsax = _mm_set1_pd(sax), vsay = _mm_set1_pd(say);
  const __m128d vsbx = _mm_set1_pd(sbx), vsby = _mm_set1_pd(sby);
  const __m128d vdlx = _mm_set1_pd(dlx), vdly = _mm_set1_pd(dly);
  const __m128d vnl = _mm_set1_pd(nl);
  const __m128d veps = _mm_set1_pd(eps);
  const __m128d one = _mm_set1_pd(1.0);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d ax = _mm_loadu_pd(wax + i), ay = _mm_loadu_pd(way + i);
    const __m128d bx = _mm_loadu_pd(wbx + i), by = _mm_loadu_pd(wby + i);
    const __m128d r1x = _mm_sub_pd(ax, vsax), r1y = _mm_sub_pd(ay, vsay);
    const __m128d r2x = _mm_sub_pd(bx, vsax), r2y = _mm_sub_pd(by, vsay);
    const __m128d c1 = _mm_sub_pd(_mm_mul_pd(vdlx, r1y), _mm_mul_pd(vdly, r1x));
    const __m128d c2 = _mm_sub_pd(_mm_mul_pd(vdlx, r2y), _mm_mul_pd(vdly, r2x));
    const __m128d n1 =
        _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(r1x, r1x), _mm_mul_pd(r1y, r1y)));
    const __m128d n2 =
        _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(r2x, r2x), _mm_mul_pd(r2y, r2y)));
    const __m128d dwx = _mm_sub_pd(bx, ax), dwy = _mm_sub_pd(by, ay);
    const __m128d r3x = _mm_sub_pd(vsax, ax), r3y = _mm_sub_pd(vsay, ay);
    const __m128d r4x = _mm_sub_pd(vsbx, ax), r4y = _mm_sub_pd(vsby, ay);
    const __m128d c3 = _mm_sub_pd(_mm_mul_pd(dwx, r3y), _mm_mul_pd(dwy, r3x));
    const __m128d c4 = _mm_sub_pd(_mm_mul_pd(dwx, r4y), _mm_mul_pd(dwy, r4x));
    const __m128d nw =
        _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(dwx, dwx), _mm_mul_pd(dwy, dwy)));
    const __m128d n3 =
        _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(r3x, r3x), _mm_mul_pd(r3y, r3y)));
    const __m128d n4 =
        _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(r4x, r4x), _mm_mul_pd(r4y, r4y)));
    const __m128d t1 = _mm_mul_pd(veps, _mm_max_pd(_mm_max_pd(one, vnl), n1));
    const __m128d t2 = _mm_mul_pd(veps, _mm_max_pd(_mm_max_pd(one, vnl), n2));
    const __m128d t3 = _mm_mul_pd(veps, _mm_max_pd(_mm_max_pd(one, nw), n3));
    const __m128d t4 = _mm_mul_pd(veps, _mm_max_pd(_mm_max_pd(one, nw), n4));
    const __m128d g1 = _mm_cmpgt_pd(c1, t1), l1 = _mm_cmplt_pd(c1, neg(t1));
    const __m128d g2 = _mm_cmpgt_pd(c2, t2), l2 = _mm_cmplt_pd(c2, neg(t2));
    const __m128d g3 = _mm_cmpgt_pd(c3, t3), l3 = _mm_cmplt_pd(c3, neg(t3));
    const __m128d g4 = _mm_cmpgt_pd(c4, t4), l4 = _mm_cmplt_pd(c4, neg(t4));
    const __m128d nz = _mm_and_pd(_mm_and_pd(_mm_or_pd(g1, l1), _mm_or_pd(g2, l2)),
                                  _mm_and_pd(_mm_or_pd(g3, l3), _mm_or_pd(g4, l4)));
    const __m128d diff12 = _mm_or_pd(_mm_and_pd(g1, l2), _mm_and_pd(l1, g2));
    const __m128d diff34 = _mm_or_pd(_mm_and_pd(g3, l4), _mm_and_pd(l3, g4));
    const __m128d crossm = _mm_and_pd(diff12, diff34);
    const int nzm = _mm_movemask_pd(nz);
    const int crm = _mm_movemask_pd(crossm);
    for (int l = 0; l < 2; ++l) {
      out[i + l] = ((nzm >> l) & 1) == 0 ? uint8_t{2}
                                         : (((crm >> l) & 1) ? uint8_t{1} : uint8_t{0});
    }
  }
  // Scalar tail, identical formulas (element-wise kernel — bit-exact).
  for (; i < n; ++i) {
    const double ax = wax[i], ay = way[i], bx = wbx[i], by = wby[i];
    const double r1x = ax - sax, r1y = ay - say;
    const double r2x = bx - sax, r2y = by - say;
    const double c1 = dlx * r1y - dly * r1x;
    const double c2 = dlx * r2y - dly * r2x;
    const double n1 = std::sqrt(r1x * r1x + r1y * r1y);
    const double n2 = std::sqrt(r2x * r2x + r2y * r2y);
    const double dwx = bx - ax, dwy = by - ay;
    const double r3x = sax - ax, r3y = say - ay;
    const double r4x = sbx - ax, r4y = sby - ay;
    const double c3 = dwx * r3y - dwy * r3x;
    const double c4 = dwx * r4y - dwy * r4x;
    const double nw = std::sqrt(dwx * dwx + dwy * dwy);
    const double n3 = std::sqrt(r3x * r3x + r3y * r3y);
    const double n4 = std::sqrt(r4x * r4x + r4y * r4y);
    const auto scale_of = [](double dn, double rn) {
      const double m = 1.0 > dn ? 1.0 : dn;
      return m > rn ? m : rn;
    };
    const double t1 = eps * scale_of(nl, n1), t2 = eps * scale_of(nl, n2);
    const double t3 = eps * scale_of(nw, n3), t4 = eps * scale_of(nw, n4);
    const bool g1 = c1 > t1, l1 = c1 < -t1;
    const bool g2 = c2 > t2, l2 = c2 < -t2;
    const bool g3 = c3 > t3, l3 = c3 < -t3;
    const bool g4 = c4 > t4, l4 = c4 < -t4;
    const bool zero_any =
        (!g1 && !l1) || (!g2 && !l2) || (!g3 && !l3) || (!g4 && !l4);
    const bool diff12 = (g1 && l2) || (l1 && g2);
    const bool diff34 = (g3 && l4) || (l3 && g4);
    out[i] = zero_any ? uint8_t{2} : (diff12 && diff34 ? uint8_t{1} : uint8_t{0});
  }
}

void pair_distances(const double* xs, const double* ys, int n, double x0,
                    double y0, double* out) {
  const __m128d vx0 = _mm_set1_pd(x0), vy0 = _mm_set1_pd(y0);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), vx0);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), vy0);
    _mm_storeu_pd(out + i,
                  _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy))));
  }
  for (; i < n; ++i) {
    const double dx = xs[i] - x0;
    const double dy = ys[i] - y0;
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

}  // namespace

namespace detail {
const Kernels kSse2Kernels = {
    gather_dot, scatter_axpy, dense_axpy, row_activity, segment_classify,
    pair_distances,
};
}  // namespace detail

}  // namespace wnet::util::simd

#endif  // __SSE2__
