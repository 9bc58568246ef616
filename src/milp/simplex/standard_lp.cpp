#include "milp/simplex/standard_lp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wnet::milp::simplex {

namespace {

// Infinite bounds are kept as-is except where the objective pushes a
// variable toward an infinite bound — the dual simplex needs a finite
// dual-feasible resting spot there, so only that side is clamped (and
// flagged: an optimum resting on it means the LP is unbounded).

}  // namespace

StandardLp::StandardLp(const Model& model)
    : a_(model.num_constrs(), model.num_vars() + model.num_constrs()) {
  const int m = model.num_constrs();
  n_struct_ = model.num_vars();
  const int n_total = n_struct_ + m;

  b_.resize(static_cast<size_t>(m));
  c_.assign(static_cast<size_t>(n_total), 0.0);
  lb_.resize(static_cast<size_t>(n_total));
  ub_.resize(static_cast<size_t>(n_total));
  lb_synth_.assign(static_cast<size_t>(n_total), 0);
  ub_synth_.assign(static_cast<size_t>(n_total), 0);

  // Structural columns: gather per-column entries from the row-wise model,
  // and record the row pattern on the way.
  std::vector<std::vector<Entry>> cols(static_cast<size_t>(n_total));
  row_start_.reserve(static_cast<size_t>(m) + 1);
  row_start_.push_back(0);
  for (int i = 0; i < m; ++i) {
    const Constraint& cn = model.constrs()[static_cast<size_t>(i)];
    b_[static_cast<size_t>(i)] = cn.rhs;
    for (const auto& [v, coef] : cn.expr.terms()) {
      cols[static_cast<size_t>(v.id)].push_back({i, coef});
      row_cols_.push_back(static_cast<int32_t>(v.id));
    }
    row_cols_.push_back(static_cast<int32_t>(n_struct_ + i));
    row_start_.push_back(static_cast<int64_t>(row_cols_.size()));
  }
  for (int j = 0; j < n_struct_; ++j) {
    const VarData& vd = model.vars()[static_cast<size_t>(j)];
    lb_[static_cast<size_t>(j)] = vd.lb;
    ub_[static_cast<size_t>(j)] = vd.ub;
  }

  // Slack columns: row i gets slack column n_struct_ + i with coefficient 1.
  for (int i = 0; i < m; ++i) {
    const int j = n_struct_ + i;
    cols[static_cast<size_t>(j)].push_back({i, 1.0});
    const Sense s = model.constrs()[static_cast<size_t>(i)].sense;
    switch (s) {
      case Sense::kLe:
        lb_[static_cast<size_t>(j)] = 0.0;
        ub_[static_cast<size_t>(j)] = kInf;
        break;
      case Sense::kGe:
        lb_[static_cast<size_t>(j)] = -kInf;
        ub_[static_cast<size_t>(j)] = 0.0;
        break;
      case Sense::kEq:
        lb_[static_cast<size_t>(j)] = 0.0;
        ub_[static_cast<size_t>(j)] = 0.0;
        break;
    }
  }

  for (int j = 0; j < n_total; ++j) {
    // Keep entries sorted by row for deterministic arithmetic.
    std::sort(cols[static_cast<size_t>(j)].begin(), cols[static_cast<size_t>(j)].end(),
              [](const Entry& x, const Entry& y) { return x.row < y.row; });
    a_.set_column(j, std::move(cols[static_cast<size_t>(j)]));
  }

  obj_constant_ = model.objective().constant();
  for (const auto& [v, coef] : model.objective().terms()) {
    c_[static_cast<size_t>(v.id)] = coef;
  }
  clamp_cost_side_infinities();
}

void StandardLp::clamp_cost_side_infinities() {
  for (size_t j = 0; j < c_.size(); ++j) {
    if (c_[j] > 0.0 && std::isinf(lb_[j])) {
      lb_[j] = -kBigBound;
      lb_synth_[j] = 1;
    } else if (c_[j] < 0.0 && std::isinf(ub_[j])) {
      ub_[j] = kBigBound;
      ub_synth_[j] = 1;
    } else if (c_[j] == 0.0 && std::isinf(lb_[j]) && std::isinf(ub_[j])) {
      // Fully free, cost-neutral: give it a resting spot at zero.
      lb_[j] = 0.0;
    }
  }
}

void StandardLp::set_bounds(int col, double lb, double ub) {
  if (col < 0 || col >= n_struct_) {
    throw std::out_of_range("StandardLp::set_bounds: not a structural column");
  }
  if (lb > ub) throw std::invalid_argument("StandardLp::set_bounds: lb > ub");
  lb_[static_cast<size_t>(col)] = lb;
  ub_[static_cast<size_t>(col)] = ub;
  lb_synth_[static_cast<size_t>(col)] = 0;
  ub_synth_[static_cast<size_t>(col)] = 0;
  if (c_[static_cast<size_t>(col)] > 0.0 && std::isinf(lb)) {
    lb_[static_cast<size_t>(col)] = -kBigBound;
    lb_synth_[static_cast<size_t>(col)] = 1;
  } else if (c_[static_cast<size_t>(col)] < 0.0 && std::isinf(ub)) {
    ub_[static_cast<size_t>(col)] = kBigBound;
    ub_synth_[static_cast<size_t>(col)] = 1;
  }
}

int StandardLp::add_row(const std::vector<std::pair<int, double>>& terms, Sense sense,
                        double rhs) {
  const int i = num_rows();
  int prev = -1;
  for (const auto& term : terms) {
    const int col = term.first;
    if (col < 0 || col >= n_struct_) {
      throw std::out_of_range("StandardLp::add_row: not a structural column");
    }
    if (col <= prev) throw std::invalid_argument("StandardLp::add_row: ids not ascending");
    prev = col;
  }
  for (const auto& [col, coef] : terms) {
    a_.append_entry(col, {i, coef});  // i is the largest row index: order kept
    row_cols_.push_back(static_cast<int32_t>(col));
  }
  row_cols_.push_back(static_cast<int32_t>(n_struct_ + i));
  row_start_.push_back(static_cast<int64_t>(row_cols_.size()));
  b_.push_back(rhs);
  a_.set_num_rows(i + 1);
  a_.add_column({{i, 1.0}});  // slack of row i = column n_struct_ + i
  c_.push_back(0.0);
  switch (sense) {
    case Sense::kLe:
      lb_.push_back(0.0);
      ub_.push_back(kInf);
      break;
    case Sense::kGe:
      lb_.push_back(-kInf);
      ub_.push_back(0.0);
      break;
    case Sense::kEq:
      lb_.push_back(0.0);
      ub_.push_back(0.0);
      break;
  }
  lb_synth_.push_back(0);
  ub_synth_.push_back(0);
  return i;
}

double StandardLp::objective_value(const std::vector<double>& x) const {
  double v = obj_constant_;
  for (size_t j = 0; j < c_.size() && j < x.size(); ++j) v += c_[j] * x[j];
  return v;
}

}  // namespace wnet::milp::simplex
