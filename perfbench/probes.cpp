#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/solution.h"
#include "graph/yen.h"
#include "milp/simplex/dual_simplex.h"
#include "milp/simplex/lu.h"
#include "milp/simplex/standard_lp.h"
#include "util/obs/json.h"

namespace wnet::perfbench {

using archex::workloads::Scenario;

namespace {

// Repeats for the sub-millisecond calls: one span covers the whole loop, so
// the span's own cost does not land in a per-call figure.
constexpr int kFactorizeRepeats = 50;
constexpr int kSolveRepeats = 500;
constexpr int kDecodeVerifyRepeats = 20;

/// The service never takes this long on these requests; a client that
/// waits longer records the request as failed instead of hanging the run.
constexpr auto kRequestTimeout = std::chrono::seconds(120);

/// Id of a terminal event line (result, failed, rejected), or empty. The
/// service writes "event" then "id" first in every event, and the ids the
/// benchmark sends need no escaping, so a prefix match suffices.
std::string terminal_id(const std::string& line, bool* is_result) {
  static const std::string kPrefixes[] = {R"({"event": "result", "id": ")",
                                          R"({"event": "failed", "id": ")",
                                          R"({"event": "rejected", "id": ")"};
  for (const std::string& p : kPrefixes) {
    if (line.compare(0, p.size(), p) == 0) {
      const size_t end = line.find('"', p.size());
      if (end == std::string::npos) return {};
      *is_result = &p == &kPrefixes[0];
      return line.substr(p.size(), end - p.size());
    }
  }
  return {};
}

/// Raw text of the canonical sub-object of a result line.
std::string canonical_of(const std::string& line) {
  const std::string open = "\"canonical\": ";
  const size_t a = line.find(open);
  const size_t b = line.rfind(", \"cache_hit\":");
  if (a == std::string::npos || b == std::string::npos || b <= a) return {};
  return line.substr(a + open.size(), b - a - open.size());
}

}  // namespace

graph::Digraph build_graph_timed(const Scenario& sc, LayerValues& out) {
  double build_s = 0.0;
  graph::Digraph g;
  {
    LayerSpan span("bench/channel.build_graph", &build_s);
    g = sc.tmpl->build_graph();
  }
  out["channel.graph_build_s"] += build_s;
  out["channel.edges"] += g.num_edges();
  return g;
}

void probe_yen(const graph::Digraph& g, const archex::Specification& spec, int k_star,
               LayerValues& out) {
  double yen_s = 0.0;
  long paths = 0;
  for (const archex::RouteRequirement& route : spec.routes) {
    graph::YenEnumerator yen(g, route.source, route.dest);
    LayerSpan span("bench/graph.yen_next_batch", &yen_s);
    paths += static_cast<long>(yen.next_batch(k_star).size());
  }
  out["graph.yen_s"] += yen_s;
  out["graph.yen_paths"] += static_cast<double>(paths);
}

EncodeModes encode_modes(const Scenario& sc, int k_star, LayerValues& out) {
  const auto counts = [](const archex::EncodeStats& st) {
    return EncodeCounts{st.num_vars, st.num_constrs, static_cast<long>(st.nonzeros),
                        st.candidate_paths, st.lazy_rows_omitted};
  };
  EncodeModes m;
  archex::EncoderOptions approx;
  approx.k_star = k_star;
  double approx_s = 0.0;
  {
    LayerSpan span("bench/encode.approx", &approx_s);
    m.approx = counts(archex::Encoder(*sc.tmpl, sc.spec, approx).encode().stats);
  }
  archex::EncoderOptions lazy = approx;
  lazy.lazy_separation = true;
  double lazy_s = 0.0;
  {
    LayerSpan span("bench/encode.lazy", &lazy_s);
    m.lazy = counts(archex::Encoder(*sc.tmpl, sc.spec, lazy).encode().stats);
  }
  archex::EncoderOptions full;
  full.mode = archex::EncoderOptions::PathMode::kFull;
  const archex::Encoder full_encoder(*sc.tmpl, sc.spec, full);
  m.full_estimated = sc.tmpl->num_nodes() > kFullBuildMaxNodes;
  double full_s = 0.0;
  {
    LayerSpan span("bench/encode.full", &full_s);
    m.full = counts(m.full_estimated ? full_encoder.estimate_full_stats()
                                     : full_encoder.encode().stats);
  }
  out["encode.approx_s"] += approx_s;
  out["encode.lazy_s"] += lazy_s;
  out["encode.full_s"] += full_s;
  out["encode.rows"] += static_cast<double>(m.approx.rows);
  out["encode.nnz"] += static_cast<double>(m.approx.nnz);
  out["encode.lazy_rows_omitted"] += static_cast<double>(m.lazy.lazy_omitted);
  return m;
}

void probe_delta(const Scenario& sc, const std::vector<int>& ladder, LayerValues& out) {
  archex::IncrementalEncoder session(*sc.tmpl, sc.spec, archex::EncoderOptions{});
  double delta_s = 0.0;
  long reused = 0;
  for (const int k : ladder) {
    LayerSpan span("bench/encode.encode_k", &delta_s);
    span.arg("k", k);
    reused += session.encode_k(k).stats.reused_candidates;
  }
  out["encode.delta_s"] += delta_s;
  out["encode.reused_candidates"] += static_cast<double>(reused);
}

void probe_simplex(const milp::Model& model, LayerValues& out) {
  using namespace milp::simplex;
  double root_s = 0.0;
  std::unique_ptr<StandardLp> lp;
  LpResult root;
  Basis basis;
  {
    LayerSpan span("bench/simplex.root_lp", &root_s);
    lp = std::make_unique<StandardLp>(model);
    DualSimplex ds(*lp);
    root = ds.solve();
    basis = ds.basis();
  }
  out["simplex.root_lp_s"] = root_s;
  out["simplex.root_lp_iters"] = root.iterations;

  BasisLu lu;
  double factorize_s = 0.0;
  {
    LayerSpan span("bench/simplex.factorize", &factorize_s);
    for (int r = 0; r < kFactorizeRepeats; ++r) (void)lu.factorize(lp->a(), basis.basic);
  }
  out["simplex.factorize_ms"] = factorize_s * 1e3 / kFactorizeRepeats;
  out["simplex.lu_fill"] = static_cast<double>(lu.fill());

  // FTRAN of the right-hand side and BTRAN of the basic costs: the two
  // solves every dual simplex iteration starts from.
  std::vector<double> basic_cost(basis.basic.size());
  for (size_t pos = 0; pos < basis.basic.size(); ++pos) {
    basic_cost[pos] = lp->c()[static_cast<size_t>(basis.basic[pos])];
  }
  double ftran_s = 0.0;
  double btran_s = 0.0;
  std::vector<double> work;
  {
    LayerSpan span("bench/simplex.ftran", &ftran_s);
    for (int r = 0; r < kSolveRepeats; ++r) {
      work = lp->b();
      lu.ftran(work);
    }
  }
  {
    LayerSpan span("bench/simplex.btran", &btran_s);
    for (int r = 0; r < kSolveRepeats; ++r) {
      work = basic_cost;
      lu.btran(work);
    }
  }
  out["simplex.ftran_us"] = ftran_s * 1e6 / kSolveRepeats;
  out["simplex.btran_us"] = btran_s * 1e6 / kSolveRepeats;
}

void explore_metrics(const archex::ExplorationResult& r, double wall_s, LayerValues& out) {
  const milp::SolveStats& st = r.solve_stats;
  out["explorer.total_s"] = wall_s;
  out["explorer.overhead_s"] = r.total_time_s - r.encode_stats.encode_time_s - st.time_s;
  out["milp.solve_s"] = st.time_s;
  out["milp.nodes"] = static_cast<double>(st.nodes);
  out["milp.lp_iterations"] = static_cast<double>(st.lp_iterations);
  out["milp.us_per_lp_iter"] = st.time_s * 1e6 / static_cast<double>(std::max(1L, st.lp_iterations));
  out["milp.warm_hit_rate"] = st.warm_start_hit_rate();
  out["milp.propagation_prunes"] = static_cast<double>(st.propagation_prunes);
  out["milp.numerical_failures"] = static_cast<double>(st.numerical_failures);
  out["milp.first_incumbent_s"] =
      st.incumbent_timeline.empty() ? st.time_s : st.incumbent_timeline.front().time_s;
  out["milp.gap"] = r.gap;
}

bool verify_metrics(const archex::ExplorationResult& r, const Scenario& sc, LayerValues& out) {
  double verify_s = 0.0;
  bool ok = true;
  {
    LayerSpan span("bench/solution.verify_architecture", &verify_s);
    for (int i = 0; i < kDecodeVerifyRepeats; ++i) {
      ok = archex::verify_architecture(r.architecture, *sc.tmpl, sc.spec).ok && ok;
    }
  }
  out["solution.verify_ms"] = verify_s * 1e3 / kDecodeVerifyRepeats;
  return ok;
}

void probe_solve(const Scenario& sc, const archex::EncoderOptions& eopts,
                 const milp::SolveOptions& sopts, Report& report, LayerValues& out) {
  const archex::Explorer ex(*sc.tmpl, sc.spec);
  double wall_s = 0.0;
  archex::ExplorationResult r;
  {
    LayerSpan span("bench/explorer.explore", &wall_s);
    r = ex.explore(eopts, sopts);
  }
  explore_metrics(r, wall_s, out);
  report.check(r.has_solution() && verify_metrics(r, sc, out),
               "solve probe: no verified answer");
  probe_simplex(ex.encode(eopts).model, out);
}

void probe_decode(const Scenario& sc, int k_star, const milp::SolveOptions& sopts,
                  Report& report, LayerValues& out) {
  archex::EncoderOptions eo;
  eo.k_star = k_star;
  const archex::EncodedProblem ep = archex::Encoder(*sc.tmpl, sc.spec, eo).encode();
  const milp::MipResult res = milp::solve(ep.model, sopts);
  report.check(res.has_solution(), "decode probe: no solution to decode");
  double decode_s = 0.0;
  if (res.has_solution()) {
    LayerSpan span("bench/solution.decode_solution", &decode_s);
    for (int i = 0; i < kDecodeVerifyRepeats; ++i) {
      (void)archex::decode_solution(ep, *sc.tmpl, sc.spec, res.x);
    }
  }
  out["solution.decode_ms"] = decode_s * 1e3 / kDecodeVerifyRepeats;
}

void probe_json(const std::vector<std::string>& lines, Report& report, LayerValues& out) {
  double parse_s = 0.0;
  size_t bytes = 0;
  long bad = 0;
  {
    LayerSpan span("bench/obs.json_parse", &parse_s);
    for (const std::string& line : lines) {
      if (!util::obs::json_parse(line)) ++bad;
      bytes += line.size();
    }
  }
  report.check(bad == 0, std::to_string(bad) + " emitted lines fail util::obs::json_parse");
  const double n = static_cast<double>(std::max<size_t>(1, lines.size()));
  out["obs.json_parse_us"] = parse_s * 1e6 / n;
  out["obs.event_bytes"] = static_cast<double>(bytes) / n;
}

ScriptedRequest make_solve_request(const std::string& id, const std::string& template_key,
                                   double cost_weight, const std::vector<int>& ladder,
                                   bool use_cache) {
  util::obs::JsonWriter w;
  w.begin_object().field("op", "solve").field("id", id).field("template", template_key);
  w.key("ladder").begin_array();
  for (const int k : ladder) w.value(k);
  w.end_array().field("time_limit_s", 60);
  if (cost_weight > 0.0) w.key("objective").begin_object().field("cost", cost_weight).end_object();
  if (!use_cache) w.field("use_cache", false);
  std::string combo = template_key + "|" + util::obs::JsonWriter::format_double(cost_weight) + "|";
  for (const int k : ladder) combo += std::to_string(k) + ",";
  return {id, w.end_object().take(), combo};
}

server::EventSink EventCollector::sink() {
  return [this](const std::string& line) {
    const Clock::time_point now = Clock::now();
    bool is_result = false;
    const std::string id = terminal_id(line, &is_result);
    const std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(line);
    if (!id.empty()) {
      done_[id] = {now, is_result};
      cv_.notify_all();
    }
  };
}

std::pair<EventCollector::Clock::time_point, bool> EventCollector::wait(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, kRequestTimeout, [&] { return done_.count(id) != 0; })) {
    return {Clock::now(), false};
  }
  const Done d = done_.at(id);
  done_.erase(id);
  return {d.at, d.result};
}

std::vector<std::string> EventCollector::lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

std::vector<RequestSample> run_closed_loop(
    server::SolveService& svc, EventCollector& events,
    const std::vector<std::vector<ScriptedRequest>>& sequences, int clients) {
  std::vector<std::vector<RequestSample>> per_sequence(sequences.size());
  std::atomic<size_t> next{0};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (size_t q = next++; q < sequences.size(); q = next++) {
          for (const ScriptedRequest& req : sequences[q]) {
            RequestSample s;
            s.id = req.id;
            s.combo = req.combo;
            util::obs::ScopedSpan span("bench/server.request", "perfbench");
            const auto t0 = EventCollector::Clock::now();
            try {
              svc.submit_line(req.line);
              const auto [t1, ok] = events.wait(req.id);
              s.ok = ok;
              s.latency_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
            } catch (const std::exception& e) {
              std::fprintf(stderr, "perfbench: request %s threw: %s\n", req.id.c_str(), e.what());
            }
            per_sequence[q].push_back(std::move(s));
          }
        }
      });
    }
  }  // jthreads join here

  std::vector<RequestSample> out;
  for (auto& sequence : per_sequence) {
    for (RequestSample& s : sequence) out.push_back(std::move(s));
  }
  std::map<std::string, RequestSample*> index;
  for (RequestSample& s : out) index[s.id] = &s;
  for (const std::string& line : events.lines()) {
    bool is_result = false;
    const auto it = index.find(terminal_id(line, &is_result));
    if (it == index.end() || !is_result) continue;
    const auto v = util::obs::json_parse(line);
    if (!v) continue;
    RequestSample& s = *it->second;
    s.cache_hit = v->get_bool("cache_hit", false);
    s.reused_rungs = static_cast<int>(v->get_number("reused_rungs", 0.0));
    s.reused_candidates = static_cast<int>(v->get_number("reused_candidates", 0.0));
    s.wall_time_s = v->get_number("wall_time_s", 0.0);
    s.queue_wait_s = v->get_number("queue_wait_s", 0.0);
    s.canonical = canonical_of(line);
  }
  return out;
}

void server_metrics(const std::vector<RequestSample>& samples, LayerValues& out) {
  std::vector<double> hit_ms;
  std::vector<double> cold_ms;
  std::vector<double> service_ms;
  std::vector<double> queue_ms;
  double reused_rungs = 0.0;
  double reused_candidates = 0.0;
  for (const RequestSample& s : samples) {
    if (!s.ok) continue;
    (s.cache_hit ? hit_ms : cold_ms).push_back(s.latency_ms);
    service_ms.push_back(s.wall_time_s * 1e3);
    queue_ms.push_back(s.queue_wait_s * 1e3);
    reused_rungs += s.reused_rungs;
    reused_candidates += s.reused_candidates;
  }
  out["server.hit_p50_ms"] = median(hit_ms);
  out["server.cold_p50_ms"] = median(cold_ms);
  out["server.cold_p99_ms"] = quantile(cold_ms, 0.99);
  out["server.service_p50_ms"] = median(service_ms);
  out["server.queue_wait_p50_ms"] = median(queue_ms);
  out["server.cache_hit_ratio"] =
      static_cast<double>(hit_ms.size()) / static_cast<double>(std::max<size_t>(1, samples.size()));
  out["server.reused_rungs"] = reused_rungs;
  out["server.reused_candidates"] = reused_candidates;
}

std::vector<std::string> probe_service(std::unique_ptr<Scenario> scenario,
                                       const std::vector<int>& ladder, int requests,
                                       Report& report, LayerValues& out) {
  const std::string key = "perfbench:probe";
  server::TemplateRegistry registry;
  registry.register_scenario(key, std::move(scenario));
  EventCollector events;
  std::vector<ScriptedRequest> script;
  for (int i = 0; i < requests; ++i) {
    script.push_back(make_solve_request("probe-" + std::to_string(i), key, 0.0, ladder, i % 2 == 1));
  }
  std::vector<RequestSample> samples;
  {
    server::ServiceConfig cfg;
    cfg.workers = 1;
    server::SolveService svc(registry, cfg, events.sink());
    samples = run_closed_loop(svc, events, {script}, 1);
    svc.shutdown();
  }
  for (const RequestSample& s : samples) {
    report.check(s.ok && !s.canonical.empty() && s.canonical == samples.front().canonical,
                 "service probe " + s.id + ": missing result or canonical differs from " +
                     samples.front().id);
  }
  server_metrics(samples, out);
  return events.lines();
}

}  // namespace wnet::perfbench
