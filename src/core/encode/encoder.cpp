#include "core/encode/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "channel/link_metrics.h"
#include "graph/connectivity.h"
#include "graph/yen.h"
#include "milp/linearize.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wnet::archex {

namespace {

using graph::Digraph;
using graph::Path;
using milp::LinExpr;
using milp::Model;
using milp::Var;

using EdgeKey = std::pair<int, int>;
using util::exec::TerminationReason;

/// Per-cycle charge coefficients of one component under the TDMA model:
///   Q = A * (weighted TX count) + B * (weighted RX count) + S
/// where the weights fold in the per-edge ETX (see etx_for_edge).
struct ChargeCoefs {
  double a_tx;   ///< mA*s per expected transmission
  double b_rx;   ///< mA*s per expected reception
  double s0;     ///< sleep floor over the whole cycle
};

ChargeCoefs charge_coefs(const Component& c, const RadioConfig& radio) {
  const radio::TdmaConfig& tdma = radio.tdma;
  const double airtime = tdma.packet_airtime_s();
  const double awake = tdma.slots_per_packet() * tdma.slot_s;
  if (radio.mac == RadioConfig::MacProtocol::kCsma) {
    // Contention MAC: carrier-sense listen per attempt, and the idle
    // baseline is duty-cycled listening rather than pure sleep.
    const double duty = radio.csma.idle_listen_duty;
    const double baseline = c.currents.rx_ma * duty + c.currents.sleep_ma * (1.0 - duty);
    const double backoff_s = radio.csma.mean_backoff_slots * tdma.slot_s;
    return {
        c.currents.tx_ma * airtime + c.currents.rx_ma * backoff_s +
            (c.currents.active_ma - baseline) * awake,
        c.currents.rx_ma * airtime + (c.currents.active_ma - baseline) * awake,
        baseline * tdma.report_period_s,
    };
  }
  return {
      c.currents.tx_ma * airtime + (c.currents.active_ma - c.currents.sleep_ma) * awake,
      c.currents.rx_ma * airtime + (c.currents.active_ma - c.currents.sleep_ma) * awake,
      c.currents.sleep_ma * tdma.report_period_s,
  };
}

/// Whole encoding pass, kept as one stateful builder. An approximate model
/// is grown by one append step (encode_to): a fresh encode runs it from an
/// empty model and a K* delta runs it from the standing one, so both emit
/// every row family through the same code and the same phase gates. The
/// full mode runs the same phases with its own flow emitters; it never
/// deltas.
class Build {
 public:
  Build(const NetworkTemplate& tmpl, const Specification& spec, const EncoderOptions& opts)
      : t_(tmpl), s_(spec), o_(opts), g_(tmpl.build_graph()) {}

  /// Encodes to K* = k: from an empty model on the first call, otherwise by
  /// appending only new candidates, variables and rows (approx mode). Every
  /// grown constraint relaxes for the all-off extension of a previous
  /// assignment, so a prior incumbent extended by extend_assignment stays
  /// feasible. A stop latched by a gate skips the remaining phases and
  /// leaves stats.termination set; the partial model must not be extended.
  /// Returns false, before any model mutation, when a delta cannot
  /// reproduce a fresh encode at `k` exactly (the caller then rebuilds):
  ///  - K* shrinks;
  ///  - the disjoint-disconnect step would remove a different path, shifting
  ///    a later replica's base graph;
  ///  - a previously-empty (route, replica) group or unsatisfiable kAvoid
  ///    hardening gains compliant candidates (their explicit-infeasibility
  ///    zero variables would no longer exist in a fresh encode);
  ///  - a relay-cover cut's minimum drops to zero (a fresh encode omits the
  ///    row entirely).
  bool encode_to(int k) {
    if (k < encoded_k_) return false;
    util::Stopwatch clock;
    const bool first = encoded_k_ < 0;
    // Failed deltas record a span without the trailing "reused" arg — the
    // caller rebuilds, and the rebuild shows up as its own encode/full span.
    util::obs::ScopedSpan span(first ? "encode/full" : "encode/delta", "encode");
    if (first) {
      span.arg("k_star", k);
      collect_margins();
    } else {
      span.arg("from_k", encoded_k_);
      span.arg("to_k", k);
    }
    const int reused = static_cast<int>(p_.candidates.size());
    // Row and column order steer the simplex and the branching, so both
    // kinds of step keep a fixed order: a fresh encode the one
    // EncoderFingerprint pins, a delta the one the K* ladders were measured
    // with (the new edges' used_ub and LQ rows right after the edges, users
    // rows before the group linking rows, conflict pairs new candidate
    // first). Deltas in the fresh order pass every delta == fresh test but
    // search differently: wnetd-mix op_p99_ms rose 33% (10 alternating
    // runs on a 4-core x86-64 machine), from its 30x10 rungs.
    if (gate() && !determine_scope(k)) return false;
    if (gate()) emit_sizing();
    if (gate()) emit_edges_and_paths();
    if (gate()) emit_hardening();
    if (gate() && first) emit_link_quality();  // a delta emitted these with its edges
    if (gate()) emit_energy();
    if (gate()) emit_localization();
    if (gate()) emit_objective();
    gate();  // charge the last phase's rows and pick up a late stop
    encoded_k_ = k;
    refresh_stats();
    p_.stats.termination = stop_why_;
    p_.stats.encode_time_s = clock.seconds();
    p_.stats.reused_candidates = reused;
    p_.stats.delta_encode_time_s = first ? 0.0 : p_.stats.encode_time_s;
    if (first) {
      span.arg("vars", p_.stats.num_vars);
      span.arg("constrs", p_.stats.num_constrs);
      span.arg("candidates", p_.stats.candidate_paths);
    } else {
      span.arg("reused", reused);
      util::obs::TraceRecorder::global().counter_add("encode.reused_candidates", reused);
    }
    return true;
  }

  [[nodiscard]] EncodedProblem& problem() { return p_; }

  /// Serial-spine gate between encoding phases: charges the rows emitted
  /// since the previous gate, counts one checkpoint, and latches the first
  /// stop reason. Once false it stays false, so the remaining phases are
  /// skipped and the partial model carries stats.termination.
  bool gate() {
    if (o_.exec.budget) {
      const long rows = static_cast<long>(p_.model.constrs().size());
      const bool ok = o_.exec.budget->charge_encode_rows(rows - charged_rows_);
      charged_rows_ = rows;
      if (!ok && stop_why_ == TerminationReason::kCompleted) {
        stop_why_ = TerminationReason::kNodeLimit;
      }
    }
    if (stop_why_ != TerminationReason::kCompleted) return false;
    TerminationReason why = TerminationReason::kCompleted;
    if (o_.exec.checkpoint(&why)) {
      stop_why_ = why;
    } else if (o_.exec.budget && o_.exec.budget->exhausted()) {
      // Worker-side refusals (Yen candidate caps) surface here, on the
      // spine, after the fork-join section that produced them.
      stop_why_ = TerminationReason::kNodeLimit;
    }
    return stop_why_ == TerminationReason::kCompleted;
  }

  /// Appends rows for o_.hardening[first..] (all must be kAvoid): same rows
  /// a fresh encode would emit, over the current candidate set.
  void append_avoid_hardenings(size_t first) {
    util::Stopwatch clock;
    for (size_t hi = first; hi < o_.hardening.size(); ++hi) emit_one_hardening(hi);
    refresh_stats();
    p_.stats.reused_candidates = static_cast<int>(p_.candidates.size());
    p_.stats.delta_encode_time_s = clock.seconds();
    p_.stats.encode_time_s = clock.seconds();
  }

  /// Extends an assignment for the model as it stood before the last
  /// encode_to: appended selectors/mappings/edges go to 0 and each appended
  /// RSS variable is solved from its own equality row (it may reference
  /// mapping variables that are active in `prev`). Returns empty when
  /// `prev` does not match the pre-step variable count.
  [[nodiscard]] std::vector<double> extend_assignment(const std::vector<double>& prev) const {
    if (prev.size() != step_.first_var) return {};
    std::vector<double> out = prev;
    out.resize(static_cast<size_t>(p_.model.num_vars()), 0.0);
    for (const EdgeKey& key : step_.edges) {
      const Var rss = p_.rss.at(key);
      const auto& cn = p_.model.constrs()[static_cast<size_t>(rss_row_.at(key))];
      // Row is  sum(gains * m) - rss = rhs  =>  rss = sum - rhs.
      double sum = 0.0;
      for (const auto& [v, c] : cn.expr.terms()) {
        if (v.id == rss.id) continue;
        sum += c * out[static_cast<size_t>(v.id)];
      }
      out[static_cast<size_t>(rss.id)] = sum - cn.rhs;
    }
    return out;
  }

  [[nodiscard]] int encoded_k() const { return encoded_k_; }

 private:
  [[nodiscard]] bool approx() const { return o_.mode == EncoderOptions::PathMode::kApprox; }
  [[nodiscard]] bool first_step() const { return encoded_k_ < 0; }

  void refresh_stats() {
    p_.stats.num_vars = p_.model.num_vars();
    p_.stats.num_constrs = p_.model.num_constrs();
    p_.stats.nonzeros = p_.model.num_nonzeros();
    p_.stats.candidate_paths = static_cast<int>(p_.candidates.size());
  }
  // ----------------------------------------------------------- hardening
  /// Folds kMargin hardenings into one per-link headroom map (max wins),
  /// consulted by both the LQ prefilter and the LQ implication.
  void collect_margins() {
    for (const auto& hc : o_.hardening) {
      if (hc.kind != HardeningConstraint::Kind::kMargin || hc.margin_db <= 0.0) continue;
      for (const auto& [a, b] : hc.links) {
        const EdgeKey key{std::min(a, b), std::max(a, b)};
        auto [it, fresh] = lq_margin_.try_emplace(key, hc.margin_db);
        if (!fresh) it->second = std::max(it->second, hc.margin_db);
      }
    }
  }

  [[nodiscard]] double margin_for(int i, int j) const {
    const auto it = lq_margin_.find({std::min(i, j), std::max(i, j)});
    return it == lq_margin_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] static bool path_avoids(const Path& p, const HardeningConstraint& hc) {
    for (int v : hc.nodes) {
      if (graph::path_uses_node(p, v)) return false;
    }
    for (const auto& [a, b] : hc.links) {
      if (graph::path_uses_link(p, a, b)) return false;
    }
    return true;
  }

  /// kAvoid hardenings: per constraint, at least one replica of the route
  /// must avoid the failed element set. In approx mode this is a cover over
  /// the route's compliant candidate selectors (a delta widens it with the
  /// new ones); in full mode an indicator per replica certifies its x^pi
  /// touches nothing forbidden.
  void emit_hardening() {
    for (size_t hi = 0; hi < o_.hardening.size(); ++hi) emit_one_hardening(hi);
  }

  void emit_one_hardening(size_t hi) {
    const auto& hc = o_.hardening[hi];
    const std::string tag = "harden" + std::to_string(hi);
    if (hc.kind != HardeningConstraint::Kind::kAvoid) return;
    if (hc.route_index < 0 || hc.route_index >= static_cast<int>(s_.routes.size())) return;

    if (approx()) {
      const auto row = avoid_rows_.find(hi);
      const size_t from = row == avoid_rows_.end() ? 0 : step_.first_candidate;
      LinExpr ok;
      bool any = false;
      for (size_t ci = from; ci < p_.candidates.size(); ++ci) {
        const auto& c = p_.candidates[ci];
        if (c.route_index != hc.route_index || !path_avoids(c.path, hc)) continue;
        ok += LinExpr(c.selector);
        any = true;
      }
      if (row != avoid_rows_.end()) {
        if (any) p_.model.add_terms_to_constr(row->second.row, ok);
        return;
      }
      if (!any) {
        // No candidate can dodge the failed set: the hardening is
        // unsatisfiable under this K*/replica budget. Encode the verdict
        // explicitly so the repair loop sees infeasible, not a silently
        // dropped constraint.
        const Var zero = p_.model.add_binary(tag + "_unsat");
        p_.model.set_bounds(zero, 0.0, 0.0);
        ok += LinExpr(zero);
      }
      avoid_rows_[hi] = {p_.model.add_ge(std::move(ok), 1.0, tag), !any};
      return;
    }
    LinExpr ok;
    for (size_t pi = 0; pi < p_.full_path_edges.size(); ++pi) {
      if (p_.full_path_ids[pi].first != hc.route_index) continue;
      LinExpr forbidden;
      bool touched = false;
      for (const auto& [key, x] : p_.full_path_edges[pi]) {
        bool bad = false;
        for (int v : hc.nodes) bad = bad || key.first == v || key.second == v;
        for (const auto& [a, b] : hc.links) {
          bad = bad || (key.first == a && key.second == b) ||
                (key.first == b && key.second == a);
        }
        if (bad) {
          forbidden += LinExpr(x);
          touched = true;
        }
      }
      const Var a = p_.model.add_binary(tag + "_ok_p" + std::to_string(pi));
      if (touched) {
        milp::imply_le(p_.model, a, forbidden, 0.0, tag + "_clean_p" + std::to_string(pi));
      }
      ok += LinExpr(a);
    }
    p_.model.add_ge(std::move(ok), 1.0, tag);
  }

  // ---------------------------------------------------------------- scope
  /// What the current step adds: candidates from `first_candidate` on (the
  /// pending ones until the selector phase appends them), and the nodes and
  /// edges that enter the scope with them.
  struct Step {
    size_t first_candidate = 0;
    size_t first_var = 0;
    std::set<int> nodes;
    std::set<EdgeKey> edges;
  };

  /// Grows the scope for K* = k. Returns false (model untouched) when the
  /// delta cannot match a fresh encode; see encode_to.
  bool determine_scope(int k) {
    step_ = Step{p_.candidates.size(), static_cast<size_t>(p_.model.num_vars()), {}, {}};
    if (!approx()) {
      for (int i = 0; i < t_.num_nodes(); ++i) step_.nodes.insert(i);
      for (const auto& e : g_.edges()) step_.edges.insert({e.from, e.to});
    } else {
      if (!run_yen(k) || !delta_is_exact()) return false;
      for (const auto& pc : pending_) {
        for (size_t h = 0; h + 1 < pc.path.nodes.size(); ++h) {
          const EdgeKey key{pc.path.nodes[h], pc.path.nodes[h + 1]};
          if (!scope_edges_.count(key)) step_.edges.insert(key);
        }
        for (int v : pc.path.nodes) {
          if (!node_in_scope_.count(v)) step_.nodes.insert(v);
        }
      }
    }
    if (first_step()) {
      // Fixed nodes and anchors participate regardless of routing.
      for (int i = 0; i < t_.num_nodes(); ++i) {
        const auto& nd = t_.node(i);
        if (nd.kind == NodeKind::kFixed || nd.role == Role::kAnchor) step_.nodes.insert(i);
      }
      // Route endpoints must exist even if no candidate survived (the model
      // must then come out infeasible, not silently shrunk).
      for (const auto& r : s_.routes) {
        step_.nodes.insert(r.source);
        step_.nodes.insert(r.dest);
      }
    }
    node_in_scope_.insert(step_.nodes.begin(), step_.nodes.end());
    scope_edges_.insert(step_.edges.begin(), step_.edges.end());
    return true;
  }

  // ------------------------------------------------------- Algorithm 1
  struct PendingCandidate {
    Path path;
    int route_index;
    int replica;
  };

  /// Resumable Yen state for one (route, replica) group: the enumerator
  /// keeps the accepted list and candidate pool alive across K* rungs, so a
  /// later step only derives the new paths.
  struct RepState {
    std::unique_ptr<graph::YenEnumerator> en;
    size_t consumed = 0;  ///< raw (pre-hop-filter) paths already taken
    /// Edges disconnected before this replica started, sorted. A delta is
    /// only valid if replaying the disconnect step over the extended batches
    /// bans exactly the same edges — otherwise a fresh encode would have run
    /// this replica's Yen on a different graph.
    std::vector<graph::EdgeId> banned_before;
  };
  struct RouteState {
    std::vector<RepState> reps;
    int k_per_rep = 0;
  };

  /// From the *filtered* batch of one replica group, the edges that
  /// DisconnectMinDisjointPath removes before the next group (the path
  /// sharing the most edges with its batch; first max wins).
  [[nodiscard]] static std::vector<graph::EdgeId> disconnect_edges(
      const std::vector<Path>& paths) {
    size_t worst = 0;
    int worst_shared = -1;
    for (size_t a = 0; a < paths.size(); ++a) {
      int shared = 0;
      for (size_t b = 0; b < paths.size(); ++b) {
        if (a != b) shared += graph::shared_edges(paths[a], paths[b]);
      }
      if (shared > worst_shared) {
        worst_shared = shared;
        worst = a;
      }
    }
    return paths[worst].edges;
  }

  [[nodiscard]] std::vector<Path> hop_filtered(std::vector<Path> paths, int ri) const {
    const auto& route = s_.routes[static_cast<size_t>(ri)];
    if (route.max_hops) {
      std::erase_if(paths, [&](const Path& p) { return p.hops() > *route.max_hops; });
    }
    return paths;
  }

  /// The graph every replica enumerator starts from. LQ prefilter: links
  /// that cannot meet the bound (including any fading margin hardened onto
  /// them) even with the best components never become candidates.
  [[nodiscard]] Digraph yen_graph() const {
    Digraph base = g_;
    const auto rss_floor = s_.min_rss_dbm();
    if (o_.lq_prefilter && rss_floor) {
      for (int e = 0; e < base.num_edges(); ++e) {
        const auto& ed = base.edge(e);
        if (t_.best_rss_dbm(ed.from, ed.to) < *rss_floor + margin_for(ed.from, ed.to)) {
          base.set_weight(e, graph::kInfWeight);
        }
      }
    }
    return base;
  }

  /// Extends route `ri`'s replica groups to their share of K* = k and
  /// returns the paths past those already taken. A replica's enumerator is
  /// created on first use, on a private copy of `base` minus the edges
  /// disconnected so far (DisconnectMinDisjointPath); later steps replay the
  /// disconnect over the extended batches and return nullopt on drift.
  /// Touches only the route's own state, so routes can run on any thread.
  std::optional<std::vector<PendingCandidate>> route_step(const Digraph& base, int ri, int k) {
    RouteState& st = route_states_[static_cast<size_t>(ri)];
    const auto& route = s_.routes[static_cast<size_t>(ri)];
    const int nrep = std::max(1, route.replicas);
    // BalanceData: split K* into Nrep groups of K with Nrep*K >= K*.
    const int kpr = std::max(1, (k + nrep - 1) / nrep);
    std::vector<PendingCandidate> out;
    if (kpr == st.k_per_rep) return out;  // K* grew too little to matter here
    // Runs on worker-pool threads: poll-only control (no checkpoint
    // counting), per the exec determinism contract.
    const util::exec::ExecControl ctl = o_.exec.worker_view();
    // Runs on encoder worker threads, so traces show the Yen fan-out lanes.
    util::obs::ScopedSpan span("encode/yen_route", "encode");
    span.arg("route", ri);
    span.arg("replicas", nrep);
    std::optional<Digraph> work;
    std::vector<graph::EdgeId> banned;  // cumulative, sorted
    for (int rep = 0; rep < nrep; ++rep) {
      if (ctl.stopped()) break;  // the spine gate reports the reason
      if (static_cast<size_t>(rep) == st.reps.size()) {
        if (!work) work = base;
        for (graph::EdgeId e : banned) work->set_weight(e, graph::kInfWeight);
        st.reps.push_back(
            {std::make_unique<graph::YenEnumerator>(*work, route.source, route.dest), 0, banned});
      } else if (st.reps[static_cast<size_t>(rep)].banned_before != banned) {
        return std::nullopt;  // disconnect drift
      }
      RepState& rp = st.reps[static_cast<size_t>(rep)];
      const auto& batch = rp.en->next_batch(kpr, ctl);
      std::vector<Path> tail(batch.begin() + static_cast<std::ptrdiff_t>(rp.consumed),
                             batch.end());
      rp.consumed = batch.size();
      for (Path& p : hop_filtered(std::move(tail), ri)) out.push_back({std::move(p), ri, rep});
      if (o_.disjoint_strategy == EncoderOptions::DisjointStrategy::kNone) continue;
      if (rep + 1 < nrep) {
        // DisconnectMinDisjointPath: remove the path sharing the most
        // edges with its batch so the next group starts fresh.
        const auto paths = hop_filtered(batch, ri);
        if (!paths.empty()) {
          for (graph::EdgeId e : disconnect_edges(paths)) banned.push_back(e);
          std::sort(banned.begin(), banned.end());
          banned.erase(std::unique(banned.begin(), banned.end()), banned.end());
        }
      }
    }
    st.k_per_rep = kpr;
    span.arg("candidates", static_cast<double>(out.size()));
    return out;
  }

  /// One Yen step over every route into pending_. Routes are independent
  /// sweeps; they fan out and merge back in route order, so the candidate
  /// list (and every variable name and constraint downstream) is identical
  /// for any thread count. False on disconnect drift.
  bool run_yen(int k) {
    // Replica enumerators are only ever missing on the first step: a
    // stopped encode is never extended.
    if (first_step()) route_states_.resize(s_.routes.size());
    const Digraph base = first_step() ? yen_graph() : Digraph{};
    const util::ParallelExecutor exec(o_.threads);
    auto per_route = exec.map<std::optional<std::vector<PendingCandidate>>>(
        static_cast<int>(s_.routes.size()), [&](int ri) { return route_step(base, ri, k); });
    for (auto& batch : per_route) {
      if (!batch) return false;
      for (auto& pc : *batch) pending_.push_back(std::move(pc));
    }
    return true;
  }

  [[nodiscard]] int relay_count(const Path& p) const {
    int relays = 0;
    for (int v : p.nodes) relays += t_.node(v).kind == NodeKind::kFixed ? 0 : 1;
    return relays;
  }

  /// A delta must reproduce a fresh encode exactly. Rows a fresh encode
  /// would no longer emit (pinned-zero infeasibility markers, collapsed
  /// cover cuts) cannot be retracted from the model, so their appearance
  /// forces a rebuild. Vacuous on the first step, which has no rows yet.
  [[nodiscard]] bool delta_is_exact() const {
    for (const auto& pc : pending_) {
      const std::pair<int, int> group{pc.route_index, pc.replica};
      if (group_unsat_.count(group)) return false;
      if (cover_row_.count(group) && relay_count(pc.path) == 0) return false;
    }
    for (const auto& [hi, ar] : avoid_rows_) {
      if (!ar.unsat) continue;
      const auto& hc = o_.hardening[hi];
      for (const auto& pc : pending_) {
        if (pc.route_index == hc.route_index && path_avoids(pc.path, hc)) return false;
      }
    }
    return true;
  }

  // --------------------------------------------------------------- sizing
  [[nodiscard]] std::vector<int> compatible_components(int node) const {
    const auto& nd = t_.node(node);
    if (nd.fixed_component) return {*nd.fixed_component};
    return t_.library().with_role(nd.role);
  }

  void emit_sizing() {
    if (first_step()) p_.node_used.assign(static_cast<size_t>(t_.num_nodes()), Var{});
    for (int i : step_.nodes) emit_sizing_node(i);
  }

  void emit_sizing_node(int i) {
    const auto& nd = t_.node(i);
    const Var u = p_.model.add_binary("u_" + nd.name);
    p_.model.set_branch_priority(u, 1);
    p_.node_used[static_cast<size_t>(i)] = u;
    if (nd.kind == NodeKind::kFixed) p_.model.set_bounds(u, 1.0, 1.0);

    LinExpr sum;
    for (int c : compatible_components(i)) {
      const Var m = p_.model.add_binary("m_" + t_.library().at(c).name + "_" + nd.name);
      p_.mapping[{c, i}] = m;
      sum += LinExpr(m);
    }
    sum -= LinExpr(u);
    p_.model.add_eq(std::move(sum), 0.0, "sizing_" + nd.name);
  }

  // ------------------------------------------------------ edges and paths
  void emit_edge_var(int from, int to) {
    const Var e = p_.model.add_binary("e_" + t_.node(from).name + "_" + t_.node(to).name);
    p_.model.set_branch_priority(e, 2);
    p_.edge_active[{from, to}] = e;
    // A link needs both endpoints deployed. Lazy mode leaves these pure
    // implication rows to the separator too — two per scoped edge, they are
    // the largest skeleton family at scale.
    if (o_.lazy_separation) {
      p_.stats.lazy_rows_omitted += 2;
    } else {
      p_.model.add_le(LinExpr(e) - LinExpr(p_.node_used[static_cast<size_t>(from)]), 0.0);
      p_.model.add_le(LinExpr(e) - LinExpr(p_.node_used[static_cast<size_t>(to)]), 0.0);
    }
  }

  void emit_edges_and_paths() {
    for (const EdgeKey& k : step_.edges) emit_edge_var(k.first, k.second);
    collect_node_users();
    if (!first_step()) {
      // Delta order: the new edges' used_ub and LQ rows come with the edges.
      finalize_node_upper_links();
      emit_link_quality();
    }
    if (approx()) {
      append_candidates();
    } else {
      emit_full_paths();
    }
  }

  /// Selectors for the pending candidates, then every candidate row family
  /// created or widened through the row maps: a fresh encode creates each
  /// row, a delta widens the rows it already has.
  void append_candidates() {
    const size_t first = step_.first_candidate;
    for (auto& pc : pending_) {
      const Var y = p_.model.add_binary("y_r" + std::to_string(pc.route_index) + "_rep" +
                                        std::to_string(pc.replica) + "_" +
                                        std::to_string(p_.candidates.size()));
      p_.model.set_branch_priority(y, 3);  // structural decisions branch first
      p_.candidates.push_back({std::move(pc.path), y, pc.route_index, pc.replica});
    }
    pending_.clear();

    // The new candidates' selector mass per group, per edge, per
    // (group, edge) and per (group, node), plus each group's relay cover.
    std::map<std::pair<int, int>, LinExpr> group;
    std::map<EdgeKey, LinExpr> users;
    std::map<std::tuple<int, int, int, int>, LinExpr> group_edge;  // (route, rep, i, j)
    std::map<std::tuple<int, int, int>, LinExpr> group_node;       // (route, rep, node)
    std::map<std::pair<int, int>, std::pair<std::set<int>, int>> cover;  // -> (union, h)
    for (size_t ci = first; ci < p_.candidates.size(); ++ci) {
      const auto& c = p_.candidates[ci];
      group[{c.route_index, c.replica}] += LinExpr(c.selector);
      for (size_t k = 0; k + 1 < c.path.nodes.size(); ++k) {
        const EdgeKey key{c.path.nodes[k], c.path.nodes[k + 1]};
        users[key] += LinExpr(c.selector);
        group_edge[{c.route_index, c.replica, key.first, key.second}] += LinExpr(c.selector);
      }
      auto& [relays, h] =
          cover.try_emplace({c.route_index, c.replica}, std::set<int>{}, INT32_MAX).first->second;
      for (int v : c.path.nodes) {
        if (t_.node(v).kind == NodeKind::kFixed) continue;  // u already 1
        group_node[{c.route_index, c.replica, v}] += LinExpr(c.selector);
        relays.insert(v);
      }
      h = std::min(h, relay_count(c.path));
    }

    // Group selection: exactly one candidate per (route, replica) group.
    // Equality (rather than >= 1) is lossless — dropping a surplus path
    // only relaxes the remaining constraints — and it licenses the
    // aggregated implications below, which tighten the LP relaxation
    // substantially (a fractional unit of path mass forces a full unit of
    // edge/node mass instead of 1/K of it).
    for (size_t ri = 0; ri < s_.routes.size(); ++ri) {
      const int nrep = std::max(1, s_.routes[ri].replicas);
      for (int rep = 0; rep < nrep; ++rep) {
        const std::pair<int, int> key{static_cast<int>(ri), rep};
        const auto add = group.find(key);
        const auto row = group_row_.find(key);
        if (row != group_row_.end()) {
          if (add != group.end()) p_.model.add_terms_to_constr(row->second, add->second);
          continue;
        }
        LinExpr any;
        if (add != group.end()) {
          any = std::move(add->second);
        } else {
          // No surviving candidate: the requirement is unsatisfiable under
          // this K*; encode that verdict explicitly.
          const Var zero = p_.model.add_binary("no_candidate");
          p_.model.set_bounds(zero, 0.0, 0.0);
          any += LinExpr(zero);
          group_unsat_.insert(key);
        }
        group_row_[key] = p_.model.add_eq(
            std::move(any), 1.0, "route" + std::to_string(ri) + "_rep" + std::to_string(rep));
      }
    }

    // Edge activation, aggregated per group: since exactly one candidate
    // of a group is chosen, e_ij >= sum of the group's selectors using ij
    // is valid and dominates the per-candidate form y <= e. Lazy mode keeps
    // the relaxed skeleton only: these linking rows (the dominant family at
    // scale) are recorded as omitted (-1) and recovered on demand by the
    // LazySeparation callbacks during the solve.
    const auto link = [&](auto& rows, auto& mass, auto&& bound) {
      for (auto& [key, expr] : mass) {
        auto [it, fresh] = rows.try_emplace(key, -1);
        if (!fresh) {
          if (it->second >= 0) p_.model.add_terms_to_constr(it->second, expr);
        } else if (o_.lazy_separation) {
          ++p_.stats.lazy_rows_omitted;
        } else {
          expr -= LinExpr(bound(key));
          it->second = p_.model.add_le(std::move(expr), 0.0);
        }
      }
    };
    const auto users_rows = [&] {
      for (auto& [key, expr] : users) {
        const auto row = users_row_.find(key);
        if (row != users_row_.end()) {
          p_.model.add_terms_to_constr(row->second, expr);
          continue;
        }
        expr -= LinExpr(p_.edge_active.at(key));
        users_row_[key] = p_.model.add_ge(std::move(expr), 0.0);  // e <= sum of users
      }
    };
    if (!first_step()) users_rows();  // delta order: users before the group linking
    link(group_edge_row_, group_edge, [&](const auto& key) {  // group path mass <= e
      return p_.edge_active.at({std::get<2>(key), std::get<3>(key)});
    });
    link(group_node_row_, group_node, [&](const auto& key) {  // group path mass <= u
      return p_.node_used[static_cast<size_t>(std::get<2>(key))];
    });
    if (first_step()) users_rows();

    // Relay-cover cuts: whichever candidate a group picks, it deploys at
    // least h_g = min-over-candidates relay count, all drawn from the
    // union of the group's relay sets. Redundant for integer solutions
    // but lifts the LP bound (fractional path mass can no longer spread
    // relay usage below the unavoidable minimum). A delta grows the union
    // and lowers the minimum.
    for (const auto& [key, add] : cover) {
      auto& [nodes, h] =
          cover_data_.try_emplace(key, std::set<int>{}, INT32_MAX).first->second;
      LinExpr grown;
      for (int v : add.first) {
        if (nodes.insert(v).second) grown += LinExpr(p_.node_used[static_cast<size_t>(v)]);
      }
      h = std::min(h, add.second);
      const auto row = cover_row_.find(key);
      if (row != cover_row_.end()) {
        p_.model.add_terms_to_constr(row->second, grown);
        p_.model.set_constr_rhs(row->second, static_cast<double>(h));
      } else if (h > 0 && !nodes.empty()) {
        cover_row_[key] = p_.model.add_ge(
            std::move(grown), static_cast<double>(h),
            "cover_r" + std::to_string(key.first) + "_" + std::to_string(key.second));
      }
    }

    // Disjointness of chosen replicas (the (1d) analog on candidates):
    // same-route candidates from different groups sharing an edge conflict,
    // for every pair touching a new candidate. Lazy mode counts the O(K^2)
    // pairs instead of emitting them.
    const auto disjoint = [&](const CandidatePath& ca, const CandidatePath& cb) {
      if (ca.route_index != cb.route_index || ca.replica == cb.replica) return;
      if (graph::shared_edges(ca.path, cb.path) == 0) return;
      if (o_.lazy_separation) {
        ++p_.stats.lazy_rows_omitted;
      } else {
        p_.model.add_le(LinExpr(ca.selector) + LinExpr(cb.selector), 1.0);
      }
    };
    const auto& cands = p_.candidates;
    if (first_step()) {
      for (size_t a = 0; a < cands.size(); ++a) {
        for (size_t b = a + 1; b < cands.size(); ++b) disjoint(cands[a], cands[b]);
      }
    } else {
      for (size_t a = first; a < cands.size(); ++a) {  // delta order: new candidate first
        for (size_t b = 0; b < a; ++b) disjoint(cands[a], cands[b]);
      }
    }
  }

  void emit_full_paths() {
    // Per required path replica: x^pi variables over every template edge,
    // flow balance (1a), loop limits (1c), edge linking (1b), hops (1e).
    std::vector<std::vector<size_t>> route_paths(s_.routes.size());
    for (size_t ri = 0; ri < s_.routes.size(); ++ri) {
      const auto& route = s_.routes[ri];
      const int nrep = std::max(1, route.replicas);
      for (int rep = 0; rep < nrep; ++rep) {
        const size_t pi = p_.full_path_edges.size();
        route_paths[ri].push_back(pi);
        p_.full_path_edges.emplace_back();
        p_.full_path_ids.emplace_back(static_cast<int>(ri), rep);
        auto& xmap = p_.full_path_edges.back();
        const std::string tag = "p" + std::to_string(pi);

        for (const auto& e : g_.edges()) {
          const Var x = p_.model.add_binary("x_" + tag + "_" + std::to_string(e.from) + "_" +
                                            std::to_string(e.to));
          xmap[{e.from, e.to}] = x;
          // (1b) x <= e.
          p_.model.add_le(LinExpr(x) - LinExpr(p_.edge_active.at({e.from, e.to})), 0.0);
        }

        // (1a) balance; (1c) degree limits.
        for (int v = 0; v < t_.num_nodes(); ++v) {
          LinExpr balance;
          LinExpr outdeg;
          LinExpr indeg;
          bool touched = false;
          for (const auto& [key, x] : xmap) {
            if (key.first == v) {
              balance += LinExpr(x);
              outdeg += LinExpr(x);
              touched = true;
            }
            if (key.second == v) {
              balance -= LinExpr(x);
              indeg += LinExpr(x);
              touched = true;
            }
          }
          const double z = v == route.source ? 1.0 : (v == route.dest ? -1.0 : 0.0);
          if (!touched) {
            if (z != 0.0) {
              // Endpoint with no incident edges: infeasible by construction.
              const Var zero = p_.model.add_binary("iso_" + tag);
              p_.model.set_bounds(zero, 0.0, 0.0);
              p_.model.add_ge(LinExpr(zero), 1.0);
            }
            continue;
          }
          p_.model.add_eq(std::move(balance), z, "bal_" + tag + "_" + std::to_string(v));
          p_.model.add_le(std::move(outdeg), 1.0);
          p_.model.add_le(std::move(indeg), 1.0);
        }

        // (1e) hop bound.
        if (route.max_hops) {
          LinExpr hops;
          for (const auto& [key, x] : xmap) hops += LinExpr(x);
          p_.model.add_le(std::move(hops), static_cast<double>(*route.max_hops));
        }
      }
      // (1d) pairwise edge-disjointness between replicas.
      for (size_t a = 0; a < route_paths[ri].size(); ++a) {
        for (size_t b = a + 1; b < route_paths[ri].size(); ++b) {
          const auto& xa = p_.full_path_edges[route_paths[ri][a]];
          const auto& xb = p_.full_path_edges[route_paths[ri][b]];
          for (const auto& [key, va] : xa) {
            p_.model.add_le(LinExpr(va) + LinExpr(xb.at(key)), 1.0);
          }
        }
      }
    }

    // e <= sum of path usages (no phantom edges).
    for (const auto& [key, e] : p_.edge_active) {
      LinExpr sum;
      for (const auto& xmap : p_.full_path_edges) {
        auto it = xmap.find(key);
        if (it != xmap.end()) sum += LinExpr(it->second);
      }
      sum -= LinExpr(e);
      p_.model.add_ge(std::move(sum), 0.0);
    }
  }

  /// A candidate node may only be "used" when something uses it: an
  /// incident active edge now, or a localization reach var added later.
  /// Collects the step's new users per node; emit_localization() extends
  /// them and emits or widens the used_ub rows.
  void collect_node_users() {
    for (int i : step_.nodes) {
      if (t_.node(i).kind != NodeKind::kFixed) node_users_[i];
    }
    for (const EdgeKey& key : step_.edges) {
      const Var e = p_.edge_active.at(key);
      for (const int v : {key.first, key.second}) {
        if (t_.node(v).kind != NodeKind::kFixed) node_users_[v] += LinExpr(e);
      }
    }
  }

  void finalize_node_upper_links() {
    for (auto& [i, users] : node_users_) {
      const auto row = used_ub_row_.find(i);
      if (row != used_ub_row_.end()) {
        p_.model.add_terms_to_constr(row->second, users);
        continue;
      }
      users -= LinExpr(p_.node_used[static_cast<size_t>(i)]);
      used_ub_row_[i] = p_.model.add_ge(std::move(users), 0.0, "used_ub_" + t_.node(i).name);
    }
    node_users_.clear();
  }

  // --------------------------------------------------------- link quality
  void emit_link_quality() {
    for (const EdgeKey& key : step_.edges) emit_lq_edge(key, p_.edge_active.at(key));
  }

  void emit_lq_edge(const EdgeKey& key, Var e) {
    const auto rss_floor = s_.min_rss_dbm();
    const auto [i, j] = key;
    const double pl = t_.path_loss_db(i, j);
    // RSS = -PL + sum_c m_ci (tx_c + g_c) + sum_c m_cj g_c  (2a).
    LinExpr rhs = LinExpr(-pl);
    double lo = -pl;
    double hi = -pl;
    double tx_lo = milp::kInf, tx_hi = -milp::kInf;
    for (int c : compatible_components(i)) {
      const Component& comp = t_.library().at(c);
      const double gain = comp.tx_power_dbm + comp.antenna_gain_dbi;
      rhs += gain * LinExpr(p_.mapping.at({c, i}));
      tx_lo = std::min(tx_lo, gain);
      tx_hi = std::max(tx_hi, gain);
    }
    double rx_lo = milp::kInf, rx_hi = -milp::kInf;
    for (int c : compatible_components(j)) {
      const double gain = t_.library().at(c).antenna_gain_dbi;
      rhs += gain * LinExpr(p_.mapping.at({c, j}));
      rx_lo = std::min(rx_lo, gain);
      rx_hi = std::max(rx_hi, gain);
    }
    lo += std::min(tx_lo, 0.0) + std::min(rx_lo, 0.0);
    hi += std::max(tx_hi, 0.0) + std::max(rx_hi, 0.0);

    const Var rss = p_.model.add_continuous(
        "rss_" + t_.node(i).name + "_" + t_.node(j).name, lo, hi);
    p_.rss[key] = rss;
    rhs -= LinExpr(rss);
    rss_row_[key] = p_.model.add_eq(std::move(rhs), 0.0);
    // (2b): active link must clear the bound, plus any fading-hardening
    // headroom the repair loop demanded for this link.
    if (rss_floor) {
      milp::imply_ge(p_.model, e, LinExpr(rss), *rss_floor + margin_for(i, j),
                     "lq_" + t_.node(i).name + "_" + t_.node(j).name);
    }
  }

  // -------------------------------------------------------------- energy
  /// Conservative per-edge ETX: evaluated at the lowest SNR the admitted
  /// design can exhibit on this link (the LQ floor if enforced, otherwise
  /// the worst component choice), so the MILP never underestimates energy.
  [[nodiscard]] double etx_for_edge(int i, int j) const {
    double worst_rss = milp::kInf;
    for (int c : compatible_components(i)) {
      const Component& comp = t_.library().at(c);
      worst_rss = std::min(worst_rss, comp.tx_power_dbm + comp.antenna_gain_dbi);
    }
    worst_rss += -t_.path_loss_db(i, j);  // RX gain >= 0 conservatively omitted
    const auto rss_floor = s_.min_rss_dbm();
    if (rss_floor) worst_rss = std::max(worst_rss, *rss_floor);
    const double snr = worst_rss - s_.radio.noise_floor_dbm;
    return channel::etx_from_snr(s_.radio.modulation, snr, s_.radio.tdma.packet_bytes);
  }

  [[nodiscard]] bool energy_enabled() const {
    return s_.lifetime || s_.objective.weight_energy != 0.0;
  }

  [[nodiscard]] double energy_fmax() const {
    int total_paths = 0;
    for (const auto& r : s_.routes) total_paths += std::max(1, r.replicas);
    return std::max(1, total_paths) * 100.0;  // ETX-weighted cap
  }

  /// Creates ftx/frx for node i and ties them to the routing mass in
  /// tx_expr/rx_expr (equality rows recorded for incremental widening),
  /// plus the per-component lifetime implications.
  void emit_energy_node(int i, LinExpr tx_expr, LinExpr rx_expr) {
    const auto& nd = t_.node(i);
    const double fmax = energy_fmax();
    const Var ftx = p_.model.add_continuous("ftx_" + nd.name, 0.0, fmax);
    const Var frx = p_.model.add_continuous("frx_" + nd.name, 0.0, fmax);
    tx_expr -= LinExpr(ftx);
    rx_expr -= LinExpr(frx);
    const int tx_row = p_.model.add_eq(std::move(tx_expr), 0.0);
    const int rx_row = p_.model.add_eq(std::move(rx_expr), 0.0);
    node_traffic_vars_[i] = {ftx, frx};
    traffic_rows_[i] = {tx_row, rx_row};

    if (s_.lifetime) {
      // (3a): per admitted component, charge per cycle within budget.
      const radio::TdmaConfig& tdma = s_.radio.tdma;
      const double battery_mas = s_.lifetime->battery_mah * 3600.0;
      const double cap = battery_mas * tdma.report_period_s /
                         (s_.lifetime->min_years * radio::kSecondsPerYear);
      for (int c : compatible_components(i)) {
        const auto cc = charge_coefs(t_.library().at(c), s_.radio);
        milp::imply_le(p_.model, p_.mapping.at({c, i}),
                       cc.a_tx * LinExpr(ftx) + cc.b_rx * LinExpr(frx), cap - cc.s0,
                       "life_" + t_.library().at(c).name + "_" + nd.name);
      }
    }
  }

  /// Weighted TX / RX counts the step's routing mass induces per battery
  /// node: nodes gaining traffic for the first time get their flow
  /// variables, the others have their traffic rows widened. With energy in
  /// the objective, every battery node in scope gets flow variables.
  void emit_energy() {
    if (!energy_enabled()) return;
    s_.radio.tdma.validate();

    std::map<int, std::pair<LinExpr, LinExpr>> traffic;  // node -> (tx, rx) mass
    const auto battery = [&](int v) { return t_.node(v).role != Role::kSink; };  // sinks: mains
    if (approx()) {
      for (size_t ci = step_.first_candidate; ci < p_.candidates.size(); ++ci) {
        const auto& c = p_.candidates[ci];
        const auto& nodes = c.path.nodes;
        for (size_t k = 0; k < nodes.size(); ++k) {
          const int v = nodes[k];
          if (!battery(v)) continue;
          const double tx_w = k + 1 < nodes.size() ? etx_for_edge(v, nodes[k + 1]) : 0.0;
          const double rx_w = k > 0 ? etx_for_edge(nodes[k - 1], v) : 0.0;
          if (tx_w <= 0 && rx_w <= 0) continue;
          auto& [tx, rx] = traffic[v];
          if (tx_w > 0) tx += tx_w * LinExpr(c.selector);
          if (rx_w > 0) rx += rx_w * LinExpr(c.selector);
        }
      }
    } else {
      for (const auto& xmap : p_.full_path_edges) {
        for (const auto& [key, x] : xmap) {
          const double etx = etx_for_edge(key.first, key.second);
          if (battery(key.first)) traffic[key.first].first += etx * LinExpr(x);
          if (battery(key.second)) traffic[key.second].second += etx * LinExpr(x);
        }
      }
    }
    if (s_.objective.weight_energy != 0.0) {
      for (int v : step_.nodes) {
        if (battery(v)) traffic[v];
      }
    }
    for (auto& [v, mass] : traffic) {
      const auto rows = traffic_rows_.find(v);
      if (rows == traffic_rows_.end()) {
        emit_energy_node(v, std::move(mass.first), std::move(mass.second));
        continue;
      }
      p_.model.add_terms_to_constr(rows->second.first, mass.first);
      p_.model.add_terms_to_constr(rows->second.second, mass.second);
    }
  }

  // -------------------------------------------------------- localization
  /// Localization rows on the first step only (they do not depend on K*),
  /// then the used_ub rows for the step's node users.
  void emit_localization() {
    if (s_.localization && first_step()) {
      const auto& loc = *s_.localization;
      const auto anchors = t_.nodes_with_role(Role::kAnchor);
      for (size_t pj = 0; pj < loc.eval_points.size(); ++pj) {
        const geom::Vec2 pt = loc.eval_points[pj];

        // Candidate anchors for this point, nearest (in path loss) first.
        std::vector<std::pair<double, int>> ranked;
        for (int i : anchors) {
          ranked.emplace_back(t_.channel_model().path_loss_db(t_.node(i).position, pt), i);
        }
        std::sort(ranked.begin(), ranked.end());
        size_t limit = ranked.size();
        if (approx() && o_.loc_candidates > 0) {
          limit = std::min<size_t>(limit, static_cast<size_t>(o_.loc_candidates));
        }

        LinExpr coverage;
        bool any = false;
        for (size_t r = 0; r < limit; ++r) {
          const auto [pl, i] = ranked[r];
          // Components of i able to reach the point at the required RSS.
          LinExpr reaching;
          bool reachable = false;
          for (int c : compatible_components(i)) {
            const Component& comp = t_.library().at(c);
            if (comp.tx_power_dbm + comp.antenna_gain_dbi - pl >= loc.min_rss_dbm) {
              reaching += LinExpr(p_.mapping.at({c, i}));
              reachable = true;
            }
          }
          if (!reachable) continue;
          const Var rij = p_.model.add_binary("r_" + t_.node(i).name + "_p" + std::to_string(pj));
          p_.reach[{i, static_cast<int>(pj)}] = rij;
          // (4a) both ways: r_ij = (a reaching component is deployed at i).
          // The lower links make r an honest reachability indicator, so the
          // DSOD objective charges every deployed anchor its full
          // point-distance mass (favoring few, strong, central anchors —
          // the paper's observed Table 2 behavior) instead of letting the
          // solver cherry-pick serving anchors.
          for (const auto& [v, coef] : reaching.terms()) {
            p_.model.add_le(LinExpr(v) - LinExpr(rij), 0.0);
          }
          reaching -= LinExpr(rij);
          p_.model.add_ge(std::move(reaching), 0.0);
          coverage += LinExpr(rij);
          any = true;
          auto it = node_users_.find(i);
          if (it != node_users_.end()) it->second += LinExpr(rij);
        }
        if (!any) {
          const Var zero = p_.model.add_binary("unreachable_p" + std::to_string(pj));
          p_.model.set_bounds(zero, 0.0, 0.0);
          coverage += LinExpr(zero);
        }
        // (4b): at least N anchors cover this point.
        p_.model.add_ge(std::move(coverage), static_cast<double>(loc.min_anchors),
                        "cover_p" + std::to_string(pj));
      }
    }
    finalize_node_upper_links();
  }

  // ----------------------------------------------------------- objective
  /// q_i >= charge-per-cycle of the admitted component; feeds the energy
  /// objective term.
  void emit_energy_objective_var(int i) {
    const auto& [ftx, frx] = node_traffic_vars_.at(i);
    double qmax = 0.0;
    for (int c : compatible_components(i)) {
      const auto cc = charge_coefs(t_.library().at(c), s_.radio);
      qmax = std::max(qmax, cc.a_tx * p_.model.var(ftx).ub + cc.b_rx * p_.model.var(frx).ub + cc.s0);
    }
    const Var q = p_.model.add_continuous("q_" + t_.node(i).name, 0.0, qmax);
    for (int c : compatible_components(i)) {
      const auto cc = charge_coefs(t_.library().at(c), s_.radio);
      milp::imply_ge(p_.model, p_.mapping.at({c, i}),
                     LinExpr(q) - cc.a_tx * LinExpr(ftx) - cc.b_rx * LinExpr(frx), cc.s0,
                     "q_lb_" + t_.node(i).name);
    }
    q_var_[i] = q;
  }

  /// q variables for the nodes that gained flow variables in this step,
  /// then the whole objective, recomputed from the decode tables. LinExpr
  /// merges terms by variable, so rebuilding after a delta yields exactly
  /// what a fresh encode would produce.
  void emit_objective() {
    if (s_.objective.weight_energy != 0.0) {
      for (const auto& entry : node_traffic_vars_) {
        if (!q_var_.count(entry.first)) emit_energy_objective_var(entry.first);
      }
    }
    LinExpr obj;
    if (s_.objective.weight_cost != 0.0) {
      for (const auto& [key, m] : p_.mapping) {
        const double cost = t_.library().at(key.first).cost_usd;
        if (cost != 0.0) obj += s_.objective.weight_cost * cost * LinExpr(m);
      }
    }
    if (s_.objective.weight_energy != 0.0) {
      for (const auto& [i, q] : q_var_) {
        obj += s_.objective.weight_energy * LinExpr(q);
      }
    }
    if (s_.objective.weight_dsod != 0.0 && s_.localization) {
      for (const auto& [key, rij] : p_.reach) {
        const auto [i, pj] = key;
        const double d =
            t_.node(i).position.dist(s_.localization->eval_points[static_cast<size_t>(pj)]);
        obj += s_.objective.weight_dsod * d * LinExpr(rij);
      }
    }
    p_.model.minimize(std::move(obj));
  }

  const NetworkTemplate& t_;
  const Specification& s_;
  const EncoderOptions& o_;
  Digraph g_;
  EncodedProblem p_;
  std::set<int> node_in_scope_;
  std::set<EdgeKey> scope_edges_;
  std::vector<PendingCandidate> pending_;  ///< Yen output awaiting selectors
  Step step_;
  std::map<int, LinExpr> node_users_;
  std::map<int, std::pair<Var, Var>> node_traffic_vars_;
  std::map<EdgeKey, double> lq_margin_;  ///< undirected (lo,hi) -> headroom dB

  // ------------------------------------------------- per-step row maps
  // Row indices recorded when a row is created, so a later step widens it
  // in place instead of re-emitting it.
  struct AvoidRow {
    int row;
    bool unsat;  ///< row holds a pinned-zero var: no candidate complied
  };
  int encoded_k_ = -1;                           ///< K* the model currently encodes
  std::vector<RouteState> route_states_;         ///< per route, resumable Yen state
  std::map<std::pair<int, int>, int> group_row_;                 ///< (route, rep) -> eq row
  std::set<std::pair<int, int>> group_unsat_;                    ///< groups with pinned-zero var
  std::map<EdgeKey, int> users_row_;                             ///< e <= sum users rows
  /// (route,rep,i,j) -> LE row, or -1 when lazy mode omitted it.
  std::map<std::tuple<int, int, int, int>, int> group_edge_row_;
  std::map<std::tuple<int, int, int>, int> group_node_row_;      ///< (route,rep,node) -> LE row or -1
  std::map<std::pair<int, int>, std::pair<std::set<int>, int>> cover_data_;  ///< -> (union, h)
  std::map<std::pair<int, int>, int> cover_row_;                 ///< (route, rep) -> GE row
  std::map<int, int> used_ub_row_;                               ///< node -> GE row
  std::map<EdgeKey, int> rss_row_;                               ///< edge -> RSS eq row
  std::map<int, std::pair<int, int>> traffic_rows_;              ///< node -> (tx eq, rx eq)
  std::map<int, Var> q_var_;                                     ///< node -> q objective var
  std::map<size_t, AvoidRow> avoid_rows_;                        ///< hardening -> kAvoid row
  TerminationReason stop_why_ = TerminationReason::kCompleted;  ///< first stop, latched
  long charged_rows_ = 0;  ///< constraint rows already charged to the budget
};

void check_route_endpoints(const NetworkTemplate& tmpl, const Specification& spec,
                           const char* who) {
  for (const auto& r : spec.routes) {
    if (r.source < 0 || r.source >= tmpl.num_nodes() || r.dest < 0 ||
        r.dest >= tmpl.num_nodes()) {
      throw std::out_of_range(std::string(who) + ": route endpoint outside template");
    }
  }
}

}  // namespace

Encoder::Encoder(const NetworkTemplate& tmpl, const Specification& spec, EncoderOptions opts)
    : tmpl_(&tmpl), spec_(&spec), opts_(opts) {
  check_route_endpoints(tmpl, spec, "Encoder");
}

EncodedProblem Encoder::encode() const {
  Build b(*tmpl_, *spec_, opts_);
  b.encode_to(opts_.k_star);
  return std::move(b.problem());
}

struct IncrementalEncoder::Impl {
  const NetworkTemplate* tmpl = nullptr;
  const Specification* spec = nullptr;
  EncoderOptions opts;
  std::unique_ptr<Build> build;
  bool dirty = false;
  bool last_was_delta = false;

  void rebuild() {
    build = std::make_unique<Build>(*tmpl, *spec, opts);
    build->encode_to(opts.k_star);
    dirty = false;
    last_was_delta = false;
  }
};

IncrementalEncoder::IncrementalEncoder(const NetworkTemplate& tmpl, const Specification& spec,
                                       EncoderOptions base)
    : impl_(std::make_unique<Impl>()) {
  check_route_endpoints(tmpl, spec, "IncrementalEncoder");
  impl_->tmpl = &tmpl;
  impl_->spec = &spec;
  impl_->opts = std::move(base);
}

IncrementalEncoder::~IncrementalEncoder() = default;

EncodedProblem& IncrementalEncoder::encode_k(int k) {
  auto& im = *impl_;
  im.opts.k_star = k;  // the live Build reads options through this object
  if (!im.build || im.dirty || im.opts.mode != EncoderOptions::PathMode::kApprox) {
    im.rebuild();
  } else if (k != im.build->encoded_k()) {
    im.last_was_delta = im.build->encode_to(k);
    if (!im.last_was_delta) im.rebuild();
  }
  // A stopped encode leaves a partial model: the caller sees termination
  // != kCompleted and reports instead of solving, and the next encode_k
  // rebuilds rather than extend it.
  if (im.build->problem().stats.termination != util::exec::TerminationReason::kCompleted) {
    im.dirty = true;
    im.last_was_delta = false;
  }
  return im.build->problem();
}

void IncrementalEncoder::append_hardenings(const std::vector<HardeningConstraint>& fresh) {
  auto& im = *impl_;
  const size_t first = im.opts.hardening.size();
  bool all_avoid = true;
  for (const auto& hc : fresh) {
    all_avoid = all_avoid && hc.kind == HardeningConstraint::Kind::kAvoid;
  }
  im.opts.hardening.insert(im.opts.hardening.end(), fresh.begin(), fresh.end());
  im.last_was_delta = false;
  if (im.build && !im.dirty && all_avoid &&
      im.opts.mode == EncoderOptions::PathMode::kApprox) {
    // Pure row appends over the existing candidate set.
    im.build->append_avoid_hardenings(first);
  } else {
    // kMargin retunes the LQ prefilter (and thus the Yen graph): rebuild.
    im.dirty = true;
  }
}

void IncrementalEncoder::invalidate() {
  impl_->dirty = true;
  impl_->last_was_delta = false;
}

void IncrementalEncoder::set_exec(const util::exec::ExecControl& exec) {
  impl_->opts.exec = exec;
}

EncodedProblem& IncrementalEncoder::problem() {
  if (!impl_->build) throw std::logic_error("IncrementalEncoder::problem() before encode_k()");
  return impl_->build->problem();
}

const EncoderOptions& IncrementalEncoder::options() const { return impl_->opts; }

std::vector<double> IncrementalEncoder::extend_assignment(const std::vector<double>& prev) const {
  const auto& im = *impl_;
  if (!im.build || !im.last_was_delta) return {};
  return im.build->extend_assignment(prev);
}

EncodeStats Encoder::estimate_full_stats() const {
  // Mirrors emit_full_paths() & friends analytically; cross-checked against
  // the real encoder in tests (tolerance documented there).
  const Digraph g = tmpl_->build_graph();
  const long n = tmpl_->num_nodes();
  const long e = g.num_edges();
  long paths = 0;
  long disjoint_pairs = 0;
  long hop_rows = 0;
  for (const auto& r : spec_->routes) {
    const long rep = std::max(1, r.replicas);
    paths += rep;
    disjoint_pairs += rep * (rep - 1) / 2;
    if (r.max_hops) hop_rows += rep;
  }

  long vars = 0;
  long cons = 0;
  // Sizing: every node in scope; average compat size.
  long compat_total = 0;
  for (int i = 0; i < n; ++i) {
    const auto& nd = tmpl_->node(i);
    compat_total += nd.fixed_component ? 1
                                       : static_cast<long>(tmpl_->library().with_role(nd.role).size());
  }
  vars += n + compat_total;  // u_i + m_ci
  cons += n;                 // sizing equalities
  // Edges: e vars + 2 endpoint links + e<=sum(x).
  vars += e;
  cons += 3 * e;
  // Node upper links (candidates only).
  long cand_nodes = 0;
  for (int i = 0; i < n; ++i) {
    if (tmpl_->node(i).kind != NodeKind::kFixed) ++cand_nodes;
  }
  cons += cand_nodes;
  // Paths: per path, e vars x; (1b) e rows; (1a)+(1c): ~3 rows per node
  // with incident edges (use all nodes as the paper's n^2+3n bound does).
  vars += paths * e;
  cons += paths * (e + 3 * n) + hop_rows;
  cons += disjoint_pairs * e;
  // LQ: rss var + equality (+ implication when a bound is set) per edge.
  vars += e;
  cons += (spec_->min_rss_dbm() ? 2L : 1L) * e;
  // Energy: 2 vars + 2 equalities + |compat| implications per battery node.
  if (spec_->lifetime || spec_->objective.weight_energy != 0.0) {
    long battery = 0;
    long battery_compat = 0;
    for (int i = 0; i < n; ++i) {
      const auto& nd = tmpl_->node(i);
      if (nd.role == Role::kSink) continue;
      ++battery;
      battery_compat += nd.fixed_component
                            ? 1
                            : static_cast<long>(tmpl_->library().with_role(nd.role).size());
    }
    vars += 2 * battery;
    cons += 2 * battery + (spec_->lifetime ? battery_compat : 0);
  }
  // Localization: full mode uses every anchor per point.
  if (spec_->localization) {
    const long anchors = static_cast<long>(tmpl_->nodes_with_role(Role::kAnchor).size());
    const long pts = static_cast<long>(spec_->localization->eval_points.size());
    vars += anchors * pts;
    cons += anchors * pts + pts;
  }

  EncodeStats st;
  st.num_vars = static_cast<int>(std::min<long>(vars, INT32_MAX));
  st.num_constrs = static_cast<int>(std::min<long>(cons, INT32_MAX));
  return st;
}

}  // namespace wnet::archex
