#pragma once

// Shared plumbing of the repository benchmark: run options, the report every
// workload fills, percentile helpers and the span/timer pair that records a
// layer call into the Chrome trace while accumulating its wall clock.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/obs/trace.h"
#include "util/stopwatch.h"

namespace wnet::perfbench {

/// Run options. --seed 1 is the default seed and 2 the held-out one kept for
/// validating claims; both have recorded references (README.md, "Seeds").
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Small inputs for the self-test: same code paths, a fraction of the work.
  bool reduced = false;
  /// Where the Chrome trace of a traced run is written.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the operation count and its
/// failures, the metrics of the requested mode, and free-form notes that
/// main() prints before the result line.
struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  std::vector<Metric> metrics;
  std::map<std::string, long> samples;  ///< sample count behind each percentile
  std::string simd_level;

  /// Counts one checked operation; a false `ok` is a failure with `what`.
  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// The end-to-end metrics every workload reports: the median of the set-up
/// samples, the median and 99th percentile of the operation wall clocks,
/// operations per second of measured time, and peak memory.
void add_end_to_end(Report& report, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, double measured_s);

/// Appends `samples` set-up timings to `out`: timed set-ups after a few
/// untimed ones, each destroyed before the next starts, so every sample sees
/// the same warmed-up heap. Workloads take samples in every iteration of the
/// measured loop rather than all at start-up, which would time them on
/// whichever core the process happened to start on.
template <class Setup>
void time_setups(int samples, Setup setup, std::vector<double>& out) {
  constexpr int kWarmUp = 3;
  for (int s = -kWarmUp; s < samples; ++s) {
    util::Stopwatch sw;
    const auto alive = setup();
    if (s >= 0) out.push_back(sw.seconds());
  }
}

/// Runs `iteration` (which returns its own wall clock) until `seconds`
/// have passed; the last iteration may run past them.
void repeat_for(double seconds, const std::function<double()>& iteration);

/// A trace span over one call into a layer that also adds the call's wall
/// clock to `*acc_s`. Spans are recorded only while the global recorder is
/// enabled (the traced run); the accumulation always happens.
class LayerSpan {
 public:
  LayerSpan(const char* name, double* acc_s) : span_(name, "perfbench"), acc_s_(acc_s) {}
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;
  ~LayerSpan() { *acc_s_ += sw_.seconds(); }

  void arg(const char* key, double v) { span_.arg(key, v); }

 private:
  util::obs::ScopedSpan span_;
  util::Stopwatch sw_;
  double* acc_s_;
};

/// Per-layer metric values of one traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Appends every per-layer metric, in the order and with the units
/// BENCHMARK.json lists them, from `values`. A metric the workload did not
/// fill is a defect of the benchmark itself: it throws std::logic_error.
void add_layer_metrics(Report& report, const LayerValues& values);

}  // namespace wnet::perfbench
