/// Differential tests for the SIMD kernel sets: the SSE2 set must be
/// bit-identical to the scalar reference — the contract that keeps a
/// report independent of which set a build compiled in. Each kernel is
/// driven over a randomized corpus through both tables and compared
/// bitwise (not within-epsilon). Builds that do not target SSE2 have only
/// the scalar set, and the suite is skipped there.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "geometry/segment.h"
#include "util/simd/simd.h"

namespace wnet::util::simd {
namespace {

#if defined(__SSE2__)

const Kernels& ref() { return detail::kScalarKernels; }
const Kernels& sse2() { return detail::kSse2Kernels; }

uint64_t bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Random sparse column: `len` distinct row indices below `dim` (sorted,
/// as CSC columns are) with signed values spanning many magnitudes.
struct SparseColumn {
  std::vector<int32_t> rows;
  std::vector<double> values;
};

SparseColumn random_column(std::mt19937_64& rng, int dim, int len) {
  std::vector<int> all(static_cast<size_t>(dim));
  std::iota(all.begin(), all.end(), 0);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(static_cast<size_t>(len));
  std::sort(all.begin(), all.end());
  std::uniform_real_distribution<double> mag(-8.0, 8.0);
  SparseColumn c;
  for (int r : all) {
    c.rows.push_back(static_cast<int32_t>(r));
    c.values.push_back(std::ldexp(mag(rng), static_cast<int>(mag(rng))));
  }
  return c;
}

std::vector<double> random_dense(std::mt19937_64& rng, int n) {
  std::uniform_real_distribution<double> mag(-8.0, 8.0);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = std::ldexp(mag(rng), static_cast<int>(mag(rng)));
  return v;
}

void expect_bitwise_equal(const std::vector<double>& want, const std::vector<double>& got,
                          int trial) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(want[i]), bits(got[i])) << "trial " << trial << " i " << i;
  }
}

TEST(SimdKernels, GatherDotSse2MatchesScalar) {
  std::mt19937_64 rng(20260808);
  const int kDim = 512;
  for (int trial = 0; trial < 1000; ++trial) {
    const int len = static_cast<int>(rng() % 65);  // 0..64 covers tails 0..3
    const SparseColumn c = random_column(rng, kDim, len);
    const std::vector<double> dense = random_dense(rng, kDim);
    const double want = ref().gather_dot(c.rows.data(), c.values.data(), len, dense.data());
    const double got = sse2().gather_dot(c.rows.data(), c.values.data(), len, dense.data());
    ASSERT_EQ(bits(want), bits(got)) << "trial " << trial << " len " << len;
  }
}

TEST(SimdKernels, ScatterAxpySse2MatchesScalar) {
  std::mt19937_64 rng(777);
  const int kDim = 512;
  std::uniform_real_distribution<double> sc(-4.0, 4.0);
  for (int trial = 0; trial < 1000; ++trial) {
    const int len = static_cast<int>(rng() % 65);
    const SparseColumn c = random_column(rng, kDim, len);
    const std::vector<double> base = random_dense(rng, kDim);
    const double scale = sc(rng);
    std::vector<double> want = base;
    std::vector<double> got = base;
    ref().scatter_axpy(c.rows.data(), c.values.data(), len, scale, want.data());
    sse2().scatter_axpy(c.rows.data(), c.values.data(), len, scale, got.data());
    expect_bitwise_equal(want, got, trial);
  }
}

TEST(SimdKernels, DenseAxpySse2MatchesScalar) {
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> sc(-4.0, 4.0);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = static_cast<int>(rng() % 130);
    const std::vector<double> x = random_dense(rng, n);
    const std::vector<double> base = random_dense(rng, n);
    const double a = sc(rng);
    std::vector<double> want = base;
    std::vector<double> got = base;
    ref().dense_axpy(want.data(), x.data(), a, n);
    sse2().dense_axpy(got.data(), x.data(), a, n);
    expect_bitwise_equal(want, got, trial);
  }
}

TEST(SimdKernels, RowActivitySse2MatchesScalar) {
  std::mt19937_64 rng(4242);
  const int kDim = 300;
  for (int trial = 0; trial < 1000; ++trial) {
    const int len = static_cast<int>(rng() % 49);
    const SparseColumn c = random_column(rng, kDim, len);
    std::vector<double> lb = random_dense(rng, kDim);
    std::vector<double> ub = lb;
    for (double& u : ub) u += 1.0;
    double want_lo = 0.0, want_hi = 0.0, lo = 0.0, hi = 0.0;
    ref().row_activity(c.rows.data(), c.values.data(), len, lb.data(), ub.data(), &want_lo,
                       &want_hi);
    sse2().row_activity(c.rows.data(), c.values.data(), len, lb.data(), ub.data(), &lo, &hi);
    ASSERT_EQ(bits(want_lo), bits(lo)) << "trial " << trial;
    ASSERT_EQ(bits(want_hi), bits(hi)) << "trial " << trial;
  }
}

TEST(SimdKernels, PairDistancesSse2MatchesScalar) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> pos(-100.0, 100.0);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = static_cast<int>(rng() % 70);
    std::vector<double> xs(static_cast<size_t>(n)), ys(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      xs[static_cast<size_t>(i)] = pos(rng);
      ys[static_cast<size_t>(i)] = pos(rng);
    }
    const double x0 = pos(rng), y0 = pos(rng);
    std::vector<double> want(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    ref().pair_distances(xs.data(), ys.data(), n, x0, y0, want.data());
    sse2().pair_distances(xs.data(), ys.data(), n, x0, y0, got.data());
    expect_bitwise_equal(want, got, trial);
    // The kernel must also reproduce Vec2::dist exactly (the propagation
    // batch API's bit-identity hinges on it).
    for (int i = 0; i < n; ++i) {
      const geom::Vec2 a{x0, y0};
      const geom::Vec2 b{xs[static_cast<size_t>(i)], ys[static_cast<size_t>(i)]};
      ASSERT_EQ(bits(a.dist(b)), bits(want[static_cast<size_t>(i)]));
    }
  }
}

TEST(SimdKernels, SegmentClassifySse2MatchesScalarAndOracle) {
  std::mt19937_64 rng(2718);
  // Half the corpus on a coarse integer grid to force collinear/touching
  // configurations (class 2), half continuous for the decisive fast path.
  std::uniform_real_distribution<double> cont(-10.0, 10.0);
  std::uniform_int_distribution<int> grid(-4, 4);
  constexpr double kEps = 1e-12;
  for (int trial = 0; trial < 1000; ++trial) {
    const bool coarse = (trial % 2) == 0;
    const auto coord = [&] {
      return coarse ? static_cast<double>(grid(rng)) : cont(rng);
    };
    const double sax = coord(), say = coord(), sbx = coord(), sby = coord();
    const int n = static_cast<int>(rng() % 10);
    std::vector<double> wax(static_cast<size_t>(n)), way(static_cast<size_t>(n)),
        wbx(static_cast<size_t>(n)), wby(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      wax[static_cast<size_t>(i)] = coord();
      way[static_cast<size_t>(i)] = coord();
      wbx[static_cast<size_t>(i)] = coord();
      wby[static_cast<size_t>(i)] = coord();
    }
    std::vector<uint8_t> want(static_cast<size_t>(n), 0), got(static_cast<size_t>(n), 0);
    ref().segment_classify(sax, say, sbx, sby, wax.data(), way.data(), wbx.data(), wby.data(),
                           n, kEps, want.data());
    sse2().segment_classify(sax, say, sbx, sby, wax.data(), way.data(), wbx.data(),
                            wby.data(), n, kEps, got.data());
    ASSERT_EQ(want, got) << "trial " << trial;
    // Resolution against the exact oracle: class 0/1 must already be the
    // answer; class 2 defers to segments_intersect.
    const geom::Segment link{{sax, say}, {sbx, sby}};
    for (int i = 0; i < n; ++i) {
      const geom::Segment wall{{wax[static_cast<size_t>(i)], way[static_cast<size_t>(i)]},
                               {wbx[static_cast<size_t>(i)], wby[static_cast<size_t>(i)]}};
      const bool oracle = geom::segments_intersect(link, wall);
      const uint8_t c = want[static_cast<size_t>(i)];
      const bool resolved = c == 1 || (c == 2 && oracle);
      ASSERT_EQ(oracle, resolved) << "trial " << trial << " wall " << i
                                  << " class " << static_cast<int>(c);
    }
  }
}

#else

TEST(SimdKernels, Sse2SetNotBuilt) {
  GTEST_SKIP() << "the compiler does not target SSE2: only the scalar set is built";
}

#endif  // __SSE2__

}  // namespace
}  // namespace wnet::util::simd
