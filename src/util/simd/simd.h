#pragma once

/// SIMD kernels for the hot inner loops: simplex gather dot-products and
/// scatter updates (SparseMatrix / BasisLu), the presolve row-activity
/// accumulation, wall-crossing segment classification and batched
/// path-loss distance evaluation.
///
/// Kernel sets
/// -----------
/// Two sets exist and each build uses exactly one, fixed at compile time:
/// the SSE2 set (`kernels_sse2.cpp`) wherever the compiler targets SSE2
/// (`__SSE2__`, the x86-64 baseline), the scalar reference
/// (`kernels_scalar.cpp`) everywhere else. There is no runtime dispatch
/// and no override: `kernels()` is an inline reference to the compiled
/// table. Wider sets (AVX2, NEON) were measured and removed: the SSE2 set
/// matched AVX2 end to end, while the scalar set alone made table1-cost
/// setup ~84% slower (see EXPERIMENTS.md).
///
/// Determinism contract
/// --------------------
/// Every kernel is specified as a fixed computation over four logical
/// lanes with a fixed reduction order, and the SSE2 set implements that
/// specification operation-for-operation. Outputs are therefore
/// bit-identical between the two sets, so a report does not depend on
/// which one a build compiled in. Concretely:
///
///  - Accumulating kernels (`gather_dot`, `row_activity`): logical lane
///    `l` sums the elements `i` with `i % 4 == l` in increasing `i`; the
///    final reduction is `(lane0 + lane2) + (lane1 + lane3)` (the natural
///    order for two 128-bit registers). The tail (`n % 4` trailing
///    elements) is folded into lanes `0..n%4-1` after the vector loop,
///    exactly one extra addend per lane.
///  - Element-wise kernels (`scatter_axpy`, `dense_axpy`, `pair_distances`,
///    `segment_classify`): one IEEE rounding per arithmetic step, never
///    fused. Both kernel translation units are compiled with
///    `-ffp-contract=off` and the SSE2 set has no FMA instructions, so a
///    multiply-add is always round(round(a*b) + c).
///  - min/max follow the x86 MINPD/MAXPD selection rule
///    `min(x,y) = x < y ? x : y` (second operand on ties/NaN).

#include <cstdint>

namespace wnet::util::simd {

/// The kernel set a build compiled in (see "Kernel sets" above).
enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
};

/// Kernel table. All pointers are always non-null.
struct Kernels {
  /// Σ values[i] * dense[rows[i]] with the 4-lane accumulation order.
  double (*gather_dot)(const int32_t* rows, const double* values, int n,
                       const double* dense);

  /// dense[rows[i]] += scale * values[i] for each i. Row indices must be
  /// distinct (CSC columns / LU columns are); each element performs one
  /// rounded multiply then one rounded add.
  void (*scatter_axpy)(const int32_t* rows, const double* values, int n,
                       double scale, double* dense);

  /// y[i] += a * x[i] for i in [0, n); branchless, one mul + one add per
  /// element regardless of zeros.
  void (*dense_axpy)(double* y, const double* x, double a, int n);

  /// Row-activity range for presolve: accumulates
  ///   lo_lane += min(a*lb, a*ub),  hi_lane += max(a*lb, a*ub)
  /// over the row's columns with the 4-lane order, where lb/ub are
  /// gathered via cols[i]. min/max use the MINPD selection rule.
  void (*row_activity)(const int32_t* cols, const double* coef, int n,
                       const double* lb, const double* ub, double* act_lo,
                       double* act_hi);

  /// Classifies each wall segment (wa[i] -> wb[i]) against the link
  /// segment (sa -> sb) using the repo's eps-scaled orientation test:
  ///   out[i] = 0  definitely no proper crossing
  ///   out[i] = 1  definitely a proper crossing (all four orientations
  ///               nonzero and o1 != o2 && o3 != o4)
  ///   out[i] = 2  some orientation is zero within tolerance — caller
  ///               must fall back to the exact scalar segments_intersect.
  void (*segment_classify)(double sax, double say, double sbx, double sby,
                           const double* wax, const double* way,
                           const double* wbx, const double* wby, int n,
                           double eps, uint8_t* out);

  /// out[i] = sqrt((xs[i]-x0)^2 + (ys[i]-y0)^2), one rounding per step
  /// (sub, mul, add, IEEE sqrt — bit-exact on every ISA).
  void (*pair_distances)(const double* xs, const double* ys, int n, double x0,
                         double y0, double* out);
};

namespace detail {
/// Per-set tables, defined in the kernels_<set>.cpp translation units.
extern const Kernels kScalarKernels;
#if defined(__SSE2__)
extern const Kernels kSse2Kernels;
#endif
}  // namespace detail

/// The kernel set this build compiled in.
constexpr Level active_level() {
#if defined(__SSE2__)
  return Level::kSse2;
#else
  return Level::kScalar;
#endif
}

/// The kernel table of active_level().
inline const Kernels& kernels() {
#if defined(__SSE2__)
  return detail::kSse2Kernels;
#else
  return detail::kScalarKernels;
#endif
}

/// "scalar" / "sse2".
constexpr const char* level_name(Level level) {
  return level == Level::kSse2 ? "sse2" : "scalar";
}

}  // namespace wnet::util::simd
