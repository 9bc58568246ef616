#pragma once

// Outside-in layer replays for the traced run. Each one calls a layer's
// public functions directly, inside a LayerSpan, on the workload's own
// inputs, and writes the layer's per-layer metrics into a LayerValues map.
// None of them runs in an untraced run, so none of them touches an
// end-to-end number.

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "core/explorer.h"
#include "core/workloads/scenarios.h"
#include "graph/digraph.h"
#include "server/solve_service.h"

namespace wnet::perfbench {

/// Model sizes of one Encoder::encode() call.
struct EncodeCounts {
  long vars = 0;
  long rows = 0;
  long nnz = 0;
  long candidates = 0;
  long lazy_omitted = 0;

  bool operator==(const EncodeCounts&) const = default;
};

/// One template compiled the three ways Table 3 reports it.
struct EncodeModes {
  EncodeCounts approx;
  EncodeCounts lazy;
  EncodeCounts full;
  bool full_estimated = false;  ///< full counts from estimate_full_stats()

  bool operator==(const EncodeModes&) const = default;
};

/// Templates above this many nodes get the closed-form full-encoding
/// estimate instead of a materialized full model, as in the Table 3 bench.
inline constexpr int kFullBuildMaxNodes = 60;

/// `channel`: the first NetworkTemplate::build_graph() on `sc`, which must be
/// fresh so the path-loss cache is filled inside the span.
graph::Digraph build_graph_timed(const archex::workloads::Scenario& sc, LayerValues& out);

/// `graph`: YenEnumerator::next_batch(k_star) for every spec route on `g`.
void probe_yen(const graph::Digraph& g, const archex::Specification& spec, int k_star,
               LayerValues& out);

/// `core/encode`: Encoder::encode in approximate mode (Algorithm 1) and in
/// lazy-separation mode at `k_star`, and the full encoding (materialized up
/// to kFullBuildMaxNodes template nodes, estimated above). Adds each mode's
/// wall clock and the approx/lazy sizes to `out`.
EncodeModes encode_modes(const archex::workloads::Scenario& sc, int k_star, LayerValues& out);

/// `core/encode` delta path: one IncrementalEncoder::encode_k per rung.
void probe_delta(const archex::workloads::Scenario& sc, const std::vector<int>& ladder,
                 LayerValues& out);

/// `milp/simplex`: the root LP of `model` (StandardLp + DualSimplex::solve),
/// then BasisLu::factorize/ftran/btran on its optimal basis, averaged over
/// repeats.
void probe_simplex(const milp::Model& model, LayerValues& out);

/// `core/explorer` and `milp` metrics of one Explorer::explore result whose
/// call took `wall_s` from the outside.
void explore_metrics(const archex::ExplorationResult& r, double wall_s, LayerValues& out);

/// `solution.verify_ms`: verify_architecture on `r`'s answer, averaged over
/// repeats. Returns whether the answer verified.
bool verify_metrics(const archex::ExplorationResult& r, const archex::workloads::Scenario& sc,
                    LayerValues& out);

/// `core/explorer`, `milp` and `solution.verify_ms` from one
/// Explorer::explore call plus verify_architecture on its answer, and
/// `milp/simplex` on the same model. An answer that is missing or fails
/// verification is a failure.
void probe_solve(const archex::workloads::Scenario& sc, const archex::EncoderOptions& eopts,
                 const milp::SolveOptions& sopts, Report& report, LayerValues& out);

/// `solution.decode_ms`: decode_solution on a solved approx model at `k_star`.
void probe_decode(const archex::workloads::Scenario& sc, int k_star,
                  const milp::SolveOptions& sopts, Report& report, LayerValues& out);

/// `util/obs`: util::obs::json_parse on every line, and the mean line size.
/// A line that does not parse is a failure.
void probe_json(const std::vector<std::string>& lines, Report& report, LayerValues& out);

// --- Driving a SolveService from closed-loop clients ----------------------

/// One request a client sends: the JSONL line and the key of its reference
/// answer (template, objective and ladder).
struct ScriptedRequest {
  std::string id;
  std::string line;
  std::string combo;
};

/// Builds a strict JSONL solve request.
[[nodiscard]] ScriptedRequest make_solve_request(const std::string& id,
                                                 const std::string& template_key,
                                                 double cost_weight,
                                                 const std::vector<int>& ladder, bool use_cache);

/// Records every line a service emits and wakes the client waiting for a
/// request's terminal event (result, failed or rejected).
class EventCollector {
 public:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] server::EventSink sink();

  /// Blocks until `id` ended; returns when its terminal event arrived and
  /// whether that event was a result.
  std::pair<Clock::time_point, bool> wait(const std::string& id);

  [[nodiscard]] std::vector<std::string> lines() const;

 private:
  struct Done {
    Clock::time_point at;
    bool result = false;
  };
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  std::map<std::string, Done> done_;
};

/// Client-side view of one finished request plus the telemetry of its
/// result event.
struct RequestSample {
  std::string id;
  std::string combo;
  bool ok = false;  ///< a result event arrived (not failed/rejected)
  double latency_ms = 0.0;
  bool cache_hit = false;
  int reused_rungs = 0;
  int reused_candidates = 0;
  double wall_time_s = 0.0;
  double queue_wait_s = 0.0;
  std::string canonical;
};

/// Runs `clients` closed-loop clients against `svc`. Each client takes the
/// next sequence no client has taken and sends its requests in order, each
/// only after the previous one ended, until no sequence is left. Returns the
/// samples of every request, in sequence order.
std::vector<RequestSample> run_closed_loop(
    server::SolveService& svc, EventCollector& events,
    const std::vector<std::vector<ScriptedRequest>>& sequences, int clients);

/// `server` metrics from request samples: latency split by cache class,
/// service time and queue wait from the result events, reuse counters.
void server_metrics(const std::vector<RequestSample>& samples, LayerValues& out);

/// `server` on a workload that does not go through the daemon: `requests`
/// serial requests for `scenario` with `ladder`, alternating cache-off and
/// cached ones, through a one-worker SolveService. Returns every line the
/// service emitted.
std::vector<std::string> probe_service(std::unique_ptr<archex::workloads::Scenario> scenario,
                                       const std::vector<int>& ladder, int requests,
                                       Report& report, LayerValues& out);

}  // namespace wnet::perfbench
