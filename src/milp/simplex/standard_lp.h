#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "milp/model.h"
#include "milp/simplex/sparse.h"

namespace wnet::milp::simplex {

/// Bound magnitude substituted for an infinite bound ONLY when the
/// objective pushes the variable toward it (the genuinely unbounded
/// direction): the dual simplex needs a finite dual-feasible resting spot
/// there. A solution resting on a synthetic bound is reported as
/// unbounded. All other infinities are kept exact, which keeps basic
/// values small and the basis well conditioned.
inline constexpr double kBigBound = 1e7;

/// Standard-form LP:  min c'x  s.t.  A x = b,  lb <= x <= ub,
/// with columns = structural variables of the Model followed by one slack
/// per row (coefficient +1; range encodes the row sense). Integrality is
/// ignored here — the MIP layer owns it.
class StandardLp {
 public:
  /// Builds the standard form from a Model. Remembered structural count
  /// lets callers slice solutions back to Model variables.
  explicit StandardLp(const Model& model);

  [[nodiscard]] int num_rows() const { return static_cast<int>(b_.size()); }
  [[nodiscard]] int num_cols() const { return a_.num_cols(); }
  [[nodiscard]] int num_structural() const { return n_struct_; }

  [[nodiscard]] const SparseMatrix& a() const { return a_; }
  /// Column indices of row i's nonzeros (its structurals in ascending
  /// order, then its slack): a CSR pattern of A, without values, that the
  /// dual simplex walks to find the columns a sparse pivot row reaches.
  [[nodiscard]] std::span<const int32_t> row_pattern(int i) const {
    const auto s = static_cast<size_t>(row_start_[static_cast<size_t>(i)]);
    const auto e = static_cast<size_t>(row_start_[static_cast<size_t>(i) + 1]);
    return {row_cols_.data() + s, e - s};
  }
  [[nodiscard]] const std::vector<double>& b() const { return b_; }
  [[nodiscard]] const std::vector<double>& c() const { return c_; }
  [[nodiscard]] const std::vector<double>& lb() const { return lb_; }
  [[nodiscard]] const std::vector<double>& ub() const { return ub_; }

  /// True if column j's stored bound was clamped from an infinity.
  [[nodiscard]] bool lb_synthetic(int j) const { return lb_synth_[static_cast<size_t>(j)] != 0; }
  [[nodiscard]] bool ub_synthetic(int j) const { return ub_synth_[static_cast<size_t>(j)] != 0; }

  /// Mutates a structural variable's bounds (branch-and-bound). Infinite
  /// values are clamped like at construction.
  void set_bounds(int col, double lb, double ub);

  /// Appends one row (a lazily activated cut) over structural columns, plus
  /// its slack column at the end — so the slack of row i stays column
  /// `num_structural() + i` and every existing column index is untouched.
  /// `terms` must reference structural columns only, with unique ascending
  /// ids. Returns the new row index. Callers must drop any simplex state
  /// built against the old dimensions (a basis is extendable: the new slack
  /// is basic in its row, which keeps the basis nonsingular and — slack
  /// cost being zero — dual feasible).
  int add_row(const std::vector<std::pair<int, double>>& terms, Sense sense, double rhs);

  /// Objective value of a full column assignment (constant included).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  [[nodiscard]] double objective_constant() const { return obj_constant_; }

 private:
  void clamp_cost_side_infinities();

  SparseMatrix a_;
  std::vector<int32_t> row_cols_;   ///< row_pattern() storage
  std::vector<int64_t> row_start_;  ///< size num_rows() + 1
  std::vector<double> b_;
  std::vector<double> c_;
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<char> lb_synth_;
  std::vector<char> ub_synth_;
  int n_struct_ = 0;
  double obj_constant_ = 0.0;
};

}  // namespace wnet::milp::simplex
