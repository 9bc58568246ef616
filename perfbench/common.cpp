#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wnet::perfbench {

namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

// Same names, units and order as the per_layer list of BENCHMARK.json (the
// self-test in run.py checks the two against each other).
constexpr LayerMetricDef kLayerMetrics[] = {
    {"channel.graph_build_s", "s"},
    {"channel.edges", "count"},
    {"graph.yen_s", "s"},
    {"graph.yen_paths", "count"},
    {"encode.approx_s", "s"},
    {"encode.lazy_s", "s"},
    {"encode.full_s", "s"},
    {"encode.rows", "count"},
    {"encode.nnz", "count"},
    {"encode.lazy_rows_omitted", "count"},
    {"encode.delta_s", "s"},
    {"encode.reused_candidates", "count"},
    {"explorer.total_s", "s"},
    {"explorer.overhead_s", "s"},
    {"milp.solve_s", "s"},
    {"milp.nodes", "count"},
    {"milp.lp_iterations", "count"},
    {"milp.us_per_lp_iter", "us"},
    {"milp.warm_hit_rate", "ratio"},
    {"milp.propagation_prunes", "count"},
    {"milp.numerical_failures", "count"},
    {"milp.first_incumbent_s", "s"},
    {"milp.gap", "ratio"},
    {"simplex.root_lp_s", "s"},
    {"simplex.root_lp_iters", "count"},
    {"simplex.factorize_ms", "ms"},
    {"simplex.ftran_us", "us"},
    {"simplex.btran_us", "us"},
    {"simplex.lu_fill", "count"},
    {"solution.decode_ms", "ms"},
    {"solution.verify_ms", "ms"},
    {"server.hit_p50_ms", "ms"},
    {"server.cold_p50_ms", "ms"},
    {"server.cold_p99_ms", "ms"},
    {"server.service_p50_ms", "ms"},
    {"server.queue_wait_p50_ms", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.reused_rungs", "count"},
    {"server.reused_candidates", "count"},
    {"obs.json_parse_us", "us"},
    {"obs.event_bytes", "bytes"},
    {"trace.overhead_ratio", "ratio"},
    {"failed_ratio", "ratio"},
};

}  // namespace

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void add_end_to_end(Report& report, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, double measured_s) {
  report.add("setup_s", median(setup_s), "s");
  report.add("op_p50_ms", median(op_ms), "ms");
  report.add("op_p99_ms", quantile(op_ms, 0.99), "ms");
  report.add("ops_per_s", static_cast<double>(op_ms.size()) / measured_s, "1/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.samples["setup_s"] = static_cast<long>(setup_s.size());
  report.samples["op_p50_ms"] = static_cast<long>(op_ms.size());
  report.samples["op_p99_ms"] = static_cast<long>(op_ms.size());
}

void repeat_for(double seconds, const std::function<double()>& iteration) {
  double total = 0.0;
  do {
    total += iteration();
  } while (total < seconds);
}

void add_layer_metrics(Report& report, const LayerValues& values) {
  for (const LayerMetricDef& def : kLayerMetrics) {
    const auto it = values.find(def.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("per-layer metric not measured: ") + def.name);
    }
    report.add(def.name, it->second, def.unit);
  }
}

}  // namespace wnet::perfbench
