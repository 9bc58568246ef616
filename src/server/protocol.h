#pragma once

// Wire protocol of the solve daemon: line-delimited JSON in both directions.
//
// Requests are one strict RFC 8259 object per line (parsed with
// obs::json_parse, the repo's one strict JSON grammar):
//
//   {"op": "solve", "id": "r1", "template": "scalable:40x15",
//    "spec": "<optional spec text>", "ladder": [1, 3, 5],
//    "time_limit_s": 30, "max_bb_nodes": 100000,
//    "objective": {"cost": 1, "energy": 0.5}, "tenant": "alice",
//    "use_cache": true}
//   {"op": "cancel", "id": "r1"}
//   {"op": "stats"}
//   {"op": "shutdown"}
//
// Responses are one JSON object per line, every one of them produced by the
// obs JsonWriter and re-parsed through json_error before it reaches the sink
// (a malformed emission is a programmer error, so it throws instead of
// corrupting the stream). Event kinds: accepted, rejected, rung, incumbent,
// bound, result, failed, cancel_ack, stats, shutdown.
//
// The `result` event carries a *canonical* sub-object under "canonical":
// status, chosen_k, objective, termination, per-rung certificates and the
// decoded architecture — everything that is deterministic for a given
// request, and nothing that is not (wall-clock fields live next to it, not
// inside). The differential tests byte-compare this object across worker
// counts and cache states.

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/requirements.h"
#include "core/workloads/scenarios.h"

namespace wnet::server {

/// One parsed request line.
struct Request {
  enum class Op { kSolve, kCancel, kStats, kShutdown };
  Op op = Op::kSolve;

  std::string id;        ///< caller-chosen request id (solve/cancel)
  std::string tenant;    ///< fair-share accounting key; defaults to ""
  std::string template_key;
  std::string spec_text;              ///< empty = the template's default spec
  std::vector<int> ladder;            ///< K* ladder; empty = {1, 3, 5}
  double time_limit_s = 0.0;          ///< <= 0 = service default
  long max_bb_nodes = -1;             ///< B&B node budget; < 0 = unlimited
  std::optional<archex::Objective> objective;  ///< override of the spec's weights
  bool use_cache = true;
};

/// Parses one request line. Returns false and fills `error` on anything
/// malformed: invalid JSON, unknown op, missing id, a non-integral or
/// non-positive ladder entry, a ladder that is not strictly increasing.
[[nodiscard]] bool parse_request(const std::string& line, Request* out, std::string* error);

/// Named problem instances the daemon can solve. Built-in keys:
///   data_collection            paper Sec. 4.1 (Table 1)
///   localization               paper Sec. 4.2 (Table 2)
///   scalable:<nodes>x<devices> paper Sec. 4.3 family, e.g. scalable:40x15
/// Scenarios are constructed lazily on first use and cached for the
/// registry's lifetime (a daemon serves many requests against the same
/// instance). Tests register custom scenarios under their own keys.
/// Thread-safe.
class TemplateRegistry {
 public:
  TemplateRegistry() = default;

  void register_scenario(const std::string& key,
                         std::unique_ptr<archex::workloads::Scenario> scenario);

  /// True if `key` names a registered or built-in scenario (no construction).
  [[nodiscard]] bool known(const std::string& key) const;

  /// The scenario for `key`, building and caching built-ins on first use;
  /// nullptr when unknown. The pointer stays valid for the registry's life.
  [[nodiscard]] const archex::workloads::Scenario* get(const std::string& key);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<archex::workloads::Scenario>> cache_;
};

// --- Event builders -------------------------------------------------------
// Each returns one complete JSON object (no trailing newline). The service
// re-parses every line through json_error before emitting.

[[nodiscard]] std::string event_accepted(const std::string& id, int queue_depth);
[[nodiscard]] std::string event_rejected(const std::string& id, const std::string& reason,
                                         const std::string& error);
[[nodiscard]] std::string event_rung(const std::string& id, int k,
                                     const archex::ExplorationResult& r, bool cache_hit);
[[nodiscard]] std::string event_incumbent(const std::string& id, int k, double objective);
[[nodiscard]] std::string event_bound(const std::string& id, int k, double bound);
[[nodiscard]] std::string event_failed(const std::string& id, const std::string& error);
[[nodiscard]] std::string event_cancel_ack(const std::string& id, bool found);

/// The deterministic canonical sub-object (see file comment).
[[nodiscard]] std::string canonical_result_json(const archex::Explorer::KStarSearchResult& kr);

/// The full result event: canonical + the non-deterministic wrapper fields
/// (wall time, queue wait, cache telemetry).
[[nodiscard]] std::string event_result(const std::string& id, const std::string& canonical_json,
                                       bool cache_hit, int reused_rungs, int reused_candidates,
                                       double wall_time_s, double queue_wait_s);

}  // namespace wnet::server
