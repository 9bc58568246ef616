// wnet_perfbench: the repository benchmark's program. run.py builds
// it and passes its arguments through:
//
//   wnet_perfbench --workload table1-cost|table3-encode|wnetd-mix
//                  --seed N --seconds S --trace 0|1 [--reduced 0|1]
//                  [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Standard output carries one `{"perfbench": ...}` line describing the run
// (commit, nproc, build type, SIMD level, sample counts), then, as its last
// line, the result object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics and write a Chrome trace to DIR. Exit status 1 when any
// output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "util/obs/json.h"
#include "util/obs/trace.h"
#include "util/simd/simd.h"
#include "workloads.h"

using namespace wnet;
using namespace wnet::perfbench;

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "wnet_perfbench: %s\nusage: wnet_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reduced 0|1] [--out-dir DIR] [--commit SHA] "
               "[--source-digest HEX]\n",
               problem.c_str());
  std::exit(2);
}

uint64_t parse_u64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') usage("--" + key + " needs a non-negative integer");
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args = {{"workload", ""},   {"seed", "1"},
                                             {"seconds", "30"},  {"trace", "0"},
                                             {"reduced", "0"},   {"out-dir", ".bench_out"},
                                             {"commit", "unknown"}, {"source-digest", "unknown"}};
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || args.count(key.substr(2)) == 0) usage("unknown argument " + key);
    if (i + 1 >= argc) usage(key + " needs a value");
    args[key.substr(2)] = argv[i + 1];
  }

  RunOptions opts;
  opts.workload = args["workload"];
  opts.seed = parse_u64("seed", args["seed"]);
  opts.seconds = static_cast<double>(parse_u64("seconds", args["seconds"]));
  opts.trace = parse_u64("trace", args["trace"]) != 0;
  opts.reduced = parse_u64("reduced", args["reduced"]) != 0;
  opts.out_dir = args["out-dir"];

  void (*workload)(const RunOptions&, Report&, LayerValues&) = nullptr;
  if (opts.workload == "table1-cost") workload = run_table1_cost;
  if (opts.workload == "table3-encode") workload = run_table3_encode;
  if (opts.workload == "wnetd-mix") workload = run_wnetd_mix;
  if (workload == nullptr) usage("unknown workload '" + opts.workload + "'");

  Report report;
  LayerValues layers;
  try {
    workload(opts, report, layers);
    if (opts.trace) {
      auto& recorder = util::obs::TraceRecorder::global();
      recorder.set_enabled(false);
      std::filesystem::create_directories(opts.out_dir);
      const std::string path =
          opts.out_dir + "/trace-" + opts.workload + "-" + std::to_string(opts.seed) + ".json";
      if (!recorder.write_chrome_trace(path)) throw std::runtime_error("cannot write " + path);
      report.notes.push_back("chrome trace: " + path);
      layers["failed_ratio"] =
          static_cast<double>(report.failed) / static_cast<double>(std::max(1L, report.attempted));
      add_layer_metrics(report, layers);
    }
    for (const Metric& m : report.metrics) {
      if (!std::isfinite(m.value)) throw std::logic_error("metric " + m.name + " is not finite");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wnet_perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& n : report.notes) std::fprintf(stderr, "note: %s\n", n.c_str());
  for (const std::string& f : report.failures) std::fprintf(stderr, "FAIL: %s\n", f.c_str());

  util::obs::JsonWriter info;
  info.begin_object().key("perfbench").begin_object();
  info.field("workload", opts.workload)
      .field("seed", opts.seed)
      .field("trace", opts.trace)
      .field("reduced", opts.reduced)
      .field("commit", args["commit"])
      .field("source_digest", args["source-digest"])
      .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .field("build_type", WNET_BENCH_BUILD_TYPE)
      .field("simd_level", report.simd_level.empty()
                               ? util::simd::level_name(util::simd::active_level())
                               : report.simd_level);
  info.key("samples").begin_object();
  for (const auto& [name, n] : report.samples) info.field(name, n);
  info.end_object().end_object();
  std::printf("%s\n", info.end_object().take().c_str());

  util::obs::JsonWriter out;
  out.begin_object()
      .field("correct", report.failed == 0)
      .field("attempted", report.attempted)
      .field("failed", report.failed);
  out.key("metrics").begin_object();
  for (const Metric& m : report.metrics) {
    out.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  out.end_object();
  std::printf("%s\n", out.end_object().take().c_str());
  return report.failed == 0 ? 0 : 1;
}
