#include "milp/simplex/lu.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/simd/simd.h"

namespace wnet::milp::simplex {

namespace {
using util::simd::kernels;

// Pending elimination steps are bits of a word array (all zero between
// calls). Draining pops them in step order, 64 markers per word read; a
// visit may mark steps on the far side of the one it visits, including in
// the same word, and those are popped in order too. Every solve and the
// factorization visit steps this way, in the order a dense sweep would.
void mark(std::vector<uint64_t>& pending, int t) {
  pending[static_cast<size_t>(t) >> 6] |= uint64_t{1} << (t & 63);
}

/// Pops the marked steps in ascending order; visit(t) may mark steps > t.
template <class Visit>
void drain_ascending(std::vector<uint64_t>& pending, Visit&& visit) {
  for (size_t wi = 0; wi < pending.size(); ++wi) {
    while (pending[wi] != 0) {
      const int t = static_cast<int>(wi * 64) + std::countr_zero(pending[wi]);
      pending[wi] &= pending[wi] - 1;
      visit(t);
    }
  }
}

/// Pops the marked steps in descending order; visit(t) may mark steps < t.
template <class Visit>
void drain_descending(std::vector<uint64_t>& pending, Visit&& visit) {
  for (size_t wi = pending.size(); wi-- > 0;) {
    while (pending[wi] != 0) {
      const int bit = 63 - std::countl_zero(pending[wi]);
      pending[wi] &= ~(uint64_t{1} << bit);
      visit(static_cast<int>(wi * 64) + bit);
    }
  }
}
}  // namespace

void BasisLu::debug_check_solve(const std::vector<double>& v) const {
#ifndef NDEBUG
  assert(static_cast<int>(v.size()) >= m_ &&
         "BasisLu solve: dense operand smaller than basis dimension");
#else
  (void)v;
#endif
}

bool BasisLu::factorize(const SparseMatrix& a, const std::vector<int>& basis_cols,
                        double singular_tol) {
  m_ = static_cast<int>(basis_cols.size());
  if (a.num_rows() != m_) throw std::invalid_argument("BasisLu: basis must be square");

  l_rows_.clear();
  l_vals_.clear();
  l_steps_.clear();
  l_start_.assign(static_cast<size_t>(m_) + 1, 0);
  u_rows_.clear();
  u_vals_.clear();
  u_start_.assign(static_cast<size_t>(m_) + 1, 0);
  u_diag_.assign(static_cast<size_t>(m_), 0.0);
  p_.assign(static_cast<size_t>(m_), -1);
  pinv_.assign(static_cast<size_t>(m_), -1);
  q_.resize(static_cast<size_t>(m_));
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  work_.assign(static_cast<size_t>(m_), 0.0);
  work2_.assign(static_cast<size_t>(m_), 0.0);

  // Column pre-ordering by nonzero count (cheap fill reduction): a stable
  // counting sort, so ties keep basis-position order. Counts are read once.
  col_nnz_.resize(static_cast<size_t>(m_));
  size_t max_nnz = 0;
  for (int k = 0; k < m_; ++k) {
    const size_t nnz = a.column(basis_cols[static_cast<size_t>(k)]).size();
    col_nnz_[static_cast<size_t>(k)] = nnz;
    max_nnz = std::max(max_nnz, nnz);
  }
  nnz_count_.assign(max_nnz + 2, 0);
  for (const size_t nnz : col_nnz_) ++nnz_count_[nnz + 1];
  for (size_t c = 1; c < nnz_count_.size(); ++c) nnz_count_[c] += nnz_count_[c - 1];
  for (int k = 0; k < m_; ++k) {
    q_[static_cast<size_t>(nnz_count_[col_nnz_[static_cast<size_t>(k)]]++)] = k;
  }

  const util::simd::Kernels& kern = kernels();
  std::vector<double>& x = work_;
  // Pending pivot steps whose rows currently hold nonzeros drive the
  // left-looking elimination in topological (step) order. pattern_
  // collects the not-yet-pivoted rows the column touches, so the pivot
  // search and L extraction below visit only those rows: the cost of a
  // column is proportional to its fill, not O(m).
  pending_.assign((static_cast<size_t>(m_) + 63) / 64, 0);
  in_pattern_.assign(static_cast<size_t>(m_), 0);
  const auto reach = [&](int row) {
    const int t = pinv_[static_cast<size_t>(row)];
    if (t >= 0) {
      mark(pending_, t);
    } else if (!in_pattern_[static_cast<size_t>(row)]) {
      in_pattern_[static_cast<size_t>(row)] = 1;
      pattern_.push_back(row);
    }
  };
  // Zeroes the pattern rows of the scratch column and resets their markers.
  const auto clear_pattern = [&] {
    for (const int i : pattern_) {
      x[static_cast<size_t>(i)] = 0.0;
      in_pattern_[static_cast<size_t>(i)] = 0;
    }
  };

  for (int k = 0; k < m_; ++k) {
    pattern_.clear();
    // Scatter the k-th factored column.
    for (const Entry& e :
         a.column(basis_cols[static_cast<size_t>(q_[static_cast<size_t>(k)])])) {
      x[static_cast<size_t>(e.row)] = e.value;
      reach(e.row);
    }

    // L column t only reaches rows pivoted after step t (or not yet), so
    // the ascending drain visits the steps in the dense loop's order.
    drain_ascending(pending_, [&](int t) {
      const int prow = p_[static_cast<size_t>(t)];
      const double xv = x[static_cast<size_t>(prow)];
      x[static_cast<size_t>(prow)] = 0.0;  // consumed into U
      if (xv == 0.0) return;               // numerically cancelled
      u_rows_.push_back(t);
      u_vals_.push_back(xv);
      // Eliminate with L column t: x -= xv * L_t (kernel scatter — row
      // indices within a column are distinct), then record the rows it
      // reached. Splitting the original fused loop is exact: reach()
      // depends only on pinv_ and the markers, never on x values.
      const int64_t s = l_start_[static_cast<size_t>(t)];
      const int len = static_cast<int>(l_start_[static_cast<size_t>(t) + 1] - s);
      kern.scatter_axpy(l_rows_.data() + s, l_vals_.data() + s, len, -xv, x.data());
      for (int i = 0; i < len; ++i) reach(l_rows_[static_cast<size_t>(s + i)]);
    });
    u_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(u_rows_.size());

    // Partial pivoting over the not-yet-pivoted rows the column reached.
    // Every other such row holds an exact zero, and ascending row order
    // keeps the first-maximum tie-break (and the L entry order) of a full
    // 0..m sweep.
    std::sort(pattern_.begin(), pattern_.end());
    int pivot_row = -1;
    double best = 0.0;
    for (const int i : pattern_) {
      const double v = std::abs(x[static_cast<size_t>(i)]);
      if (v > best) {
        best = v;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || best < singular_tol) {
      clear_pattern();  // scratch stays all-zero between calls
      return false;
    }

    const double pivot = x[static_cast<size_t>(pivot_row)];
    p_[static_cast<size_t>(k)] = pivot_row;
    pinv_[static_cast<size_t>(pivot_row)] = k;
    u_diag_[static_cast<size_t>(k)] = pivot;
    x[static_cast<size_t>(pivot_row)] = 0.0;

    for (const int i : pattern_) {
      const double v = x[static_cast<size_t>(i)];
      if (v == 0.0) continue;  // cancelled, or the pivot row itself
      l_rows_.push_back(i);
      l_vals_.push_back(v / pivot);
    }
    clear_pattern();
    l_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(l_rows_.size());
    assert(std::all_of(x.begin(), x.end(), [](double v) { return v == 0.0; }) &&
           "BasisLu::factorize: scratch column not clean after elimination");
  }

  // Step index of every L entry's row (all rows end up pivoted), so the
  // BTRAN L^T pass can gather straight from step space.
  l_steps_.resize(l_rows_.size());
  for (size_t i = 0; i < l_rows_.size(); ++i) {
    l_steps_[i] = pinv_[static_cast<size_t>(l_rows_[i])];
  }
  build_transposed_patterns();
  return true;
}

void BasisLu::build_transposed_patterns() {
  const auto m = static_cast<size_t>(m_);
  qinv_.resize(m);
  for (size_t k = 0; k < m; ++k) qinv_[static_cast<size_t>(q_[k])] = static_cast<int>(k);
  // Counting transpose of a step-indexed column pattern: scanning the
  // columns in ascending order keeps every transposed list ascending.
  const auto transpose = [m](const std::vector<int32_t>& steps,
                             const std::vector<int64_t>& start, std::vector<int64_t>& t_start,
                             std::vector<int32_t>& t_cols) {
    t_start.assign(m + 1, 0);
    for (const int32_t t : steps) ++t_start[static_cast<size_t>(t) + 1];
    for (size_t t = 0; t < m; ++t) t_start[t + 1] += t_start[t];
    t_cols.resize(steps.size());
    for (size_t k = 0; k < m; ++k) {
      for (int64_t i = start[k]; i < start[k + 1]; ++i) {
        const auto t = static_cast<size_t>(steps[static_cast<size_t>(i)]);
        t_cols[static_cast<size_t>(t_start[t]++)] = static_cast<int32_t>(k);
      }
    }
    // Each t_start[t] now holds the end of list t: shift back to starts.
    for (size_t t = m; t > 0; --t) t_start[t] = t_start[t - 1];
    t_start[0] = 0;
  };
  transpose(u_rows_, u_start_, ut_start_, ut_cols_);
  transpose(l_steps_, l_start_, lt_start_, lt_cols_);
}

void BasisLu::ftran(std::vector<double>& x) const {
  debug_check_solve(x);
  const util::simd::Kernels& kern = kernels();
  // Forward: y = L^{-1} P x, working in original-row space. Empty L and U
  // columns (most of them on slack-heavy bases) skip the kernel call.
  for (int t = 0; t < m_; ++t) {
    const int64_t s = l_start_[static_cast<size_t>(t)];
    const int len = static_cast<int>(l_start_[static_cast<size_t>(t) + 1] - s);
    if (len == 0) continue;
    const double v = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
    if (v == 0.0) continue;
    kern.scatter_axpy(l_rows_.data() + s, l_vals_.data() + s, len, -v, x.data());
  }
  // Gather into step space.
  std::vector<double>& y = work2_;
  for (int t = 0; t < m_; ++t) {
    y[static_cast<size_t>(t)] = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
  }

  // Backward: z = U^{-1} y (column-oriented back substitution).
  for (int k = m_ - 1; k >= 0; --k) {
    const double zk = y[static_cast<size_t>(k)] / u_diag_[static_cast<size_t>(k)];
    y[static_cast<size_t>(k)] = zk;
    const int64_t s = u_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(u_start_[static_cast<size_t>(k) + 1] - s);
    if (zk == 0.0 || len == 0) continue;
    kern.scatter_axpy(u_rows_.data() + s, u_vals_.data() + s, len, -zk, y.data());
  }

  // Un-permute columns: x[basis position q_[k]] = z[k].
  for (int k = 0; k < m_; ++k) {
    x[static_cast<size_t>(q_[static_cast<size_t>(k)])] = y[static_cast<size_t>(k)];
  }

  // Apply eta transformations in application order.
  for (const Eta& e : etas_) {
    const double xr = x[static_cast<size_t>(e.pos)] / e.pivot;
    x[static_cast<size_t>(e.pos)] = xr;
    if (xr == 0.0) continue;
    kern.scatter_axpy(eta_rows_.data() + e.start, eta_vals_.data() + e.start, e.len, -xr,
                      x.data());
  }
}

void BasisLu::ftran_unit(std::vector<double>& x, int row, double value) const {
  debug_check_solve(x);
  const util::simd::Kernels& kern = kernels();
  x[static_cast<size_t>(row)] = value;
  touched_.clear();
  const size_t words = (static_cast<size_t>(m_) + 63) / 64;
  if (pending_.size() != words) pending_.assign(words, 0);

  // Forward: reach-based L pass. Updates from step t only create nonzeros at
  // rows pivoted later, so draining the pending steps in increasing order
  // replays the dense loop's visit order restricted to reachable steps.
  mark(pending_, pinv_[static_cast<size_t>(row)]);
  int kmax = -1;
  drain_ascending(pending_, [&](int t) {
    touched_.push_back(t);
    kmax = t;
    const double v = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
    if (v == 0.0) return;  // numerically cancelled
    const int64_t s = l_start_[static_cast<size_t>(t)];
    const int len = static_cast<int>(l_start_[static_cast<size_t>(t) + 1] - s);
    kern.scatter_axpy(l_rows_.data() + s, l_vals_.data() + s, len, -v, x.data());
    for (int i = 0; i < len; ++i) {
      mark(pending_, pinv_[static_cast<size_t>(l_rows_[static_cast<size_t>(s + i)])]);
    }
  });

  // Gather into step space: only steps <= kmax can hold nonzeros.
  std::vector<double>& y = work2_;
  std::fill(y.begin(), y.begin() + (kmax + 1), 0.0);
  for (const int t : touched_) {
    y[static_cast<size_t>(t)] = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
    x[static_cast<size_t>(p_[static_cast<size_t>(t)])] = 0.0;  // clear row-space residue
  }

  // Backward: U substitution scatters strictly upward (step t < k), so
  // everything above the deepest touched step stays exactly zero.
  for (int k = kmax; k >= 0; --k) {
    const double zk = y[static_cast<size_t>(k)] / u_diag_[static_cast<size_t>(k)];
    y[static_cast<size_t>(k)] = zk;
    const int64_t s = u_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(u_start_[static_cast<size_t>(k) + 1] - s);
    if (zk == 0.0 || len == 0) continue;
    kern.scatter_axpy(u_rows_.data() + s, u_vals_.data() + s, len, -zk, y.data());
  }

  // Un-permute columns; x above was restored to all-zero, so positions past
  // kmax already hold their (zero) solution values.
  for (int k = 0; k <= kmax; ++k) {
    x[static_cast<size_t>(q_[static_cast<size_t>(k)])] = y[static_cast<size_t>(k)];
  }

  // Apply eta transformations in application order (same as ftran()).
  for (const Eta& e : etas_) {
    const double xr = x[static_cast<size_t>(e.pos)] / e.pivot;
    x[static_cast<size_t>(e.pos)] = xr;
    if (xr == 0.0) continue;
    kern.scatter_axpy(eta_rows_.data() + e.start, eta_vals_.data() + e.start, e.len, -xr,
                      x.data());
  }
}

void BasisLu::btran(std::vector<double>& y) const {
  debug_check_solve(y);
  const util::simd::Kernels& kern = kernels();
  // Etas transposed, newest first: y <- E^{-T} y. The dot is the 4-lane
  // kernel (acc = y[pos] - Σ lanes), bit-identical in both kernel sets.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const double dot = kern.gather_dot(eta_rows_.data() + it->start,
                                       eta_vals_.data() + it->start, it->len, y.data());
    y[static_cast<size_t>(it->pos)] = (y[static_cast<size_t>(it->pos)] - dot) / it->pivot;
  }

  // Permute into step space: c_q[k] = y[q_[k]].
  std::vector<double>& w = work2_;
  for (int k = 0; k < m_; ++k) {
    w[static_cast<size_t>(k)] = y[static_cast<size_t>(q_[static_cast<size_t>(k)])];
  }

  // Solve U^T w' = c_q forward over steps (U stored by column). The kernel's
  // dot of an empty column is +0.0, which subtracts exactly nothing, so
  // empty columns (most of them on slack-heavy bases) skip the call.
  for (int k = 0; k < m_; ++k) {
    const int64_t s = u_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(u_start_[static_cast<size_t>(k) + 1] - s);
    const double dot =
        len > 0 ? kern.gather_dot(u_rows_.data() + s, u_vals_.data() + s, len, w.data()) : 0.0;
    w[static_cast<size_t>(k)] =
        (w[static_cast<size_t>(k)] - dot) / u_diag_[static_cast<size_t>(k)];
  }

  // Solve L^T t = w backward; L column entries live in original-row space,
  // l_steps_ carries their precomputed step indices for the gather.
  for (int k = m_ - 1; k >= 0; --k) {
    const int64_t s = l_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(l_start_[static_cast<size_t>(k) + 1] - s);
    if (len == 0) continue;
    const double dot =
        kern.gather_dot(l_steps_.data() + s, l_vals_.data() + s, len, w.data());
    w[static_cast<size_t>(k)] = w[static_cast<size_t>(k)] - dot;
  }

  // Un-permute rows: y[p_[k]] = t[k].
  for (int k = 0; k < m_; ++k) {
    y[static_cast<size_t>(p_[static_cast<size_t>(k)])] = w[static_cast<size_t>(k)];
  }
}

void BasisLu::btran_unit(std::vector<double>& y, int pos, std::vector<int>& rows) const {
  debug_check_solve(y);
  const util::simd::Kernels& kern = kernels();
  rows.clear();
  touched_.clear();
  const size_t words = (static_cast<size_t>(m_) + 63) / 64;
  if (pending_.size() != words) pending_.assign(words, 0);
  std::vector<double>& w = work_;  // step space; all zero between calls

  // Etas transposed, newest first, exactly as in btran().
  y[static_cast<size_t>(pos)] = 1.0;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const double dot = kern.gather_dot(eta_rows_.data() + it->start,
                                       eta_vals_.data() + it->start, it->len, y.data());
    y[static_cast<size_t>(it->pos)] = (y[static_cast<size_t>(it->pos)] - dot) / it->pivot;
  }

  // Move the eta pass's nonzeros, which can only sit at pos and at the
  // etas' pivot positions, into step space and mark their steps pending.
  const auto seed = [&](int p) {
    const double v = y[static_cast<size_t>(p)];
    y[static_cast<size_t>(p)] = 0.0;
    if (v == 0.0) return;
    const int t = qinv_[static_cast<size_t>(p)];
    w[static_cast<size_t>(t)] = v;
    mark(pending_, t);
  };
  seed(pos);
  for (const Eta& e : etas_) seed(e.pos);

  // U^T forward pass in ascending step order. A step the dense loop would
  // visit unreached gathers only zeros, so its result is a zero: only steps
  // that a nonzero reaches through the transposed U pattern (U^T only
  // reaches later steps) are visited. An empty column's dot is +0.0.
  drain_ascending(pending_, [&](int t) {
    touched_.push_back(t);
    const int64_t s = u_start_[static_cast<size_t>(t)];
    const int len = static_cast<int>(u_start_[static_cast<size_t>(t) + 1] - s);
    const double dot =
        len > 0 ? kern.gather_dot(u_rows_.data() + s, u_vals_.data() + s, len, w.data()) : 0.0;
    w[static_cast<size_t>(t)] = (w[static_cast<size_t>(t)] - dot) / u_diag_[static_cast<size_t>(t)];
    if (w[static_cast<size_t>(t)] == 0.0) return;
    for (int64_t i = ut_start_[static_cast<size_t>(t)]; i < ut_start_[static_cast<size_t>(t) + 1];
         ++i) {
      mark(pending_, ut_cols_[static_cast<size_t>(i)]);
    }
  });

  // L^T backward pass in descending step order (L^T only reaches earlier
  // steps), seeded by the U pass's nonzeros.
  for (const int t : touched_) {
    if (w[static_cast<size_t>(t)] != 0.0) mark(pending_, t);
  }
  drain_descending(pending_, [&](int t) {
    touched_.push_back(t);
    const int64_t s = l_start_[static_cast<size_t>(t)];
    const int len = static_cast<int>(l_start_[static_cast<size_t>(t) + 1] - s);
    const double dot =
        len > 0 ? kern.gather_dot(l_steps_.data() + s, l_vals_.data() + s, len, w.data()) : 0.0;
    const double v = w[static_cast<size_t>(t)] - dot;
    w[static_cast<size_t>(t)] = v;
    if (v == 0.0) return;
    // Un-permute into row space as the pass goes: y[p_[t]] = t-th entry.
    y[static_cast<size_t>(p_[static_cast<size_t>(t)])] = v;
    rows.push_back(p_[static_cast<size_t>(t)]);
    for (int64_t i = lt_start_[static_cast<size_t>(t)]; i < lt_start_[static_cast<size_t>(t) + 1];
         ++i) {
      mark(pending_, lt_cols_[static_cast<size_t>(i)]);
    }
  });
  for (const int t : touched_) w[static_cast<size_t>(t)] = 0.0;
}

bool BasisLu::update(int pos, const std::vector<double>& w, double pivot_tol) {
  const double pivot = w[static_cast<size_t>(pos)];
  if (std::abs(pivot) < pivot_tol) return false;
  Eta e;
  e.pos = pos;
  e.pivot = pivot;
  e.start = static_cast<int64_t>(eta_rows_.size());
  // Branchless compaction of the off-pivot nonzeros, in ascending order:
  // every entry is written, and the cursor advances past the kept ones.
  const auto base = static_cast<size_t>(e.start);
  eta_rows_.resize(base + static_cast<size_t>(m_));
  eta_vals_.resize(base + static_cast<size_t>(m_));
  size_t end = base;
  for (int i = 0; i < m_; ++i) {
    const double v = w[static_cast<size_t>(i)];
    eta_rows_[end] = i;
    eta_vals_[end] = v;
    end += static_cast<size_t>(v != 0.0 && i != pos);
  }
  eta_rows_.resize(end);
  eta_vals_.resize(end);
  e.len = static_cast<int>(static_cast<int64_t>(end) - e.start);
  etas_.push_back(e);
  return true;
}

}  // namespace wnet::milp::simplex
