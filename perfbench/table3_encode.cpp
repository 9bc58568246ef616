// table3-encode: the paper's Table 3 size family compiled with
// Encoder::encode and never solved. Each size is encoded in approximate
// mode (Algorithm 1, K*=10) and in lazy-separation mode; the full encoding
// is materialized up to 60 nodes and estimated above. Algorithm 1's compile
// path (path-loss cache, Yen, encoder) does all of the work, so simplex and
// branch-and-bound changes should read "no change" here.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/workloads/scenarios.h"
#include "probes.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace wnet::perfbench {

namespace {

using archex::workloads::Scenario;

constexpr int kKStar = 10;
constexpr int kSetupSamplesPerIteration = 6;

const std::vector<std::pair<int, int>> kSizes = {{50, 20},   {100, 20},  {100, 50}, {100, 75},
                                                 {250, 50},  {250, 100}, {250, 200}, {500, 50},
                                                 {500, 100}, {500, 200}};
constexpr size_t kReducedSizes = 3;

/// --seed n drives ScalableConfig::seed = n + 2, so the default seed 1 is
/// the library default 3 that every Table 3 bench uses.
uint64_t scalable_seed(uint64_t seed) { return seed + 2; }

/// Recorded sizes per family member: approx, lazy and full counts as
/// {vars, rows, nnz, candidates, lazy rows omitted}, then whether the full
/// counts are the closed-form estimate (which carries no nonzero count).
/// Seeds 3 and 4 are the default and the held-out --seed (1 and 2).
struct Reference {
  uint64_t scalable_seed;
  std::vector<EncodeModes> sizes;
};
const Reference kReferences[] = {
    {3,
     {
         {{908, 1730, 5945, 200, 0}, {908, 868, 3995, 200, 862}, {30306, 37281, 265475, 0, 0}, false},
         {{1261, 2319, 7550, 200, 0}, {1261, 1283, 5328, 200, 1036}, {160424, 188266, 0, 0, 0}, true},
         {{2111, 4245, 14898, 500, 0}, {2111, 1983, 9836, 500, 2262}, {233134, 261591, 0, 0, 0}, true},
         {{1570, 3247, 15930, 492, 0}, {1570, 1349, 9930, 492, 1898}, {157135, 185756, 0, 0, 0}, true},
         {{3053, 5706, 19775, 500, 0}, {3053, 3140, 13953, 500, 2566}, {2029472, 2184136, 0, 0, 0}, true},
         {{4390, 8819, 33234, 1000, 0}, {4390, 4217, 22148, 1000, 4602}, {2921186, 3082196, 0, 0, 0}, true},
         {{5115, 10732, 50336, 2000, 0}, {5115, 4047, 31273, 2000, 6685}, {1940038, 2118876, 0, 0, 0}, true},
         {{3683, 6628, 23957, 500, 0}, {3683, 3916, 17369, 500, 2712}, {7937778, 8470926, 0, 0, 0}, true},
         {{5587, 10814, 41516, 1000, 0}, {5587, 5702, 28732, 1000, 5112}, {13294694, 13835991, 0, 0, 0}, true},
         {{7927, 16152, 67345, 2000, 0}, {7927, 7457, 44308, 2000, 8695}, {18913722, 19494861, 0, 0, 0}, true},
     }},
    {4,
     {
         {{907, 1718, 6033, 200, 0}, {907, 866, 4071, 200, 852}, {30020, 36950, 262954, 0, 0}, false},
         {{1326, 2420, 8221, 200, 0}, {1326, 1368, 5877, 200, 1052}, {158356, 185916, 0, 0, 0}, true},
         {{2113, 4276, 15259, 500, 0}, {2113, 1988, 10087, 500, 2288}, {231054, 259391, 0, 0, 0}, true},
         {{1583, 3228, 16855, 517, 0}, {1583, 1328, 10496, 517, 1900}, {156981, 185596, 0, 0, 0}, true},
         {{2968, 5601, 19613, 500, 0}, {2968, 3051, 13765, 500, 2550}, {2015900, 2169781, 0, 0, 0}, true},
         {{4384, 8739, 33479, 1000, 0}, {4384, 4216, 22416, 1000, 4523}, {2906294, 3066866, 0, 0, 0}, true},
         {{5066, 10680, 51026, 2000, 0}, {5066, 3973, 31663, 2000, 6707}, {1907718, 2086076, 0, 0, 0}, true},
         {{3617, 6571, 24017, 500, 0}, {3617, 3835, 17329, 500, 2736}, {7915886, 8447771, 0, 0, 0}, true},
         {{5572, 10722, 40924, 1000, 0}, {5572, 5664, 28324, 1000, 5058}, {13290716, 13831896, 0, 0, 0}, true},
         {{7943, 16220, 67644, 2000, 0}, {7943, 7502, 44526, 2000, 8718}, {18798582, 19378011, 0, 0, 0}, true},
     }},
};

/// The recorded sizes for this run, or nullptr (reduced runs have none).
const Reference* reference_for(const RunOptions& opts) {
  for (const Reference& r : kReferences) {
    if (!opts.reduced && r.scalable_seed == scalable_seed(opts.seed)) return &r;
  }
  return nullptr;
}

std::vector<std::pair<int, int>> sizes(const RunOptions& opts) {
  return opts.reduced ? std::vector<std::pair<int, int>>(kSizes.begin(), kSizes.begin() + kReducedSizes)
                      : kSizes;
}

std::vector<std::unique_ptr<Scenario>> make_family(const RunOptions& opts) {
  std::vector<std::unique_ptr<Scenario>> family;
  for (const auto& [nodes, devices] : sizes(opts)) {
    archex::workloads::ScalableConfig cfg;
    cfg.total_nodes = nodes;
    cfg.end_devices = devices;
    cfg.seed = scalable_seed(opts.seed);
    family.push_back(archex::workloads::make_scalable(cfg));
  }
  return family;
}

/// One operation: the first build_graph (path-loss cache) and the three
/// encodings of every member of a freshly built family.
std::vector<EncodeModes> compile_family(const std::vector<std::unique_ptr<Scenario>>& family,
                                        LayerValues& layers) {
  std::vector<EncodeModes> out;
  for (const auto& sc : family) {
    (void)build_graph_timed(*sc, layers);
    out.push_back(encode_modes(*sc, kKStar, layers));
  }
  return out;
}

std::string describe(const EncodeCounts& c) {
  return "{" + std::to_string(c.vars) + ", " + std::to_string(c.rows) + ", " +
         std::to_string(c.nnz) + ", " + std::to_string(c.candidates) + ", " +
         std::to_string(c.lazy_omitted) + "}";
}

/// Checks one compiled family against the run's first pass (the encoder is
/// deterministic) and against the recorded reference when there is one.
void check_family(const RunOptions& opts, const std::vector<EncodeModes>& got,
                  const std::vector<EncodeModes>* first, Report& report) {
  const auto sz = sizes(opts);
  std::string problems;
  const Reference* ref = reference_for(opts);
  if (ref == nullptr && first == nullptr && !opts.reduced) {
    // Printed so the sizes of a new seed can be recorded above.
    std::fprintf(stderr, "table3-encode sizes for ScalableConfig::seed %llu:\n",
                 static_cast<unsigned long long>(scalable_seed(opts.seed)));
    for (const EncodeModes& m : got) {
      std::fprintf(stderr, "    {%s, %s, %s, %s},\n", describe(m.approx).c_str(),
                   describe(m.lazy).c_str(), describe(m.full).c_str(),
                   m.full_estimated ? "true" : "false");
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string name = std::to_string(sz[i].first) + "x" + std::to_string(sz[i].second);
    if (first != nullptr && !(got[i] == (*first)[i])) problems += " " + name + " differs between passes;";
    if (ref != nullptr && !(got[i] == ref->sizes[i])) {
      problems += " " + name + " approx " + describe(got[i].approx) + " lazy " +
                  describe(got[i].lazy) + " full " + describe(got[i].full) +
                  " differ from the reference;";
    }
  }
  report.check(problems.empty(), "table3-encode:" + problems);
}

}  // namespace

void run_table3_encode(const RunOptions& opts, Report& report, LayerValues& layers) {
  if (reference_for(opts) == nullptr) {
    report.notes.push_back(opts.reduced ? "reduced size: reference check skipped"
                                        : "no recorded sizes for this seed: reference check skipped");
  }

  if (!opts.trace) {
    std::vector<double> setup_s;
    std::vector<double> op_ms;
    double measured_s = 0.0;
    std::vector<EncodeModes> first;
    LayerValues unused;
    repeat_for(opts.seconds, [&] {
      util::Stopwatch iteration;
      time_setups(kSetupSamplesPerIteration, [&] { return make_family(opts); }, setup_s);
      const auto family = make_family(opts);
      util::Stopwatch sw;
      const std::vector<EncodeModes> got = compile_family(family, unused);
      const double op_s = sw.seconds();
      op_ms.push_back(op_s * 1e3);
      measured_s += op_s;
      check_family(opts, got, first.empty() ? nullptr : &first, report);
      if (first.empty()) first = got;
      return iteration.seconds();
    });
    add_end_to_end(report, setup_s, op_ms, measured_s);
    return;
  }

  // The first pass in a process also pays for faulting in a few hundred MB
  // of fresh heap; it is left out of the overhead ratio.
  LayerValues unused;
  const std::vector<EncodeModes> first = compile_family(make_family(opts), unused);
  check_family(opts, first, nullptr, report);
  util::Stopwatch sw;
  check_family(opts, compile_family(make_family(opts), unused), &first, report);
  const double untraced_s = sw.seconds();

  util::obs::TraceRecorder::global().set_enabled(true);
  const auto family = make_family(opts);
  double traced_s = 0.0;
  std::vector<EncodeModes> got;
  {
    LayerSpan span("bench/table3.compile_family", &traced_s);
    got = compile_family(family, layers);
  }
  check_family(opts, got, &first, report);
  layers["trace.overhead_ratio"] = traced_s / untraced_s;

  // Outside-in replays: Yen on every member's graph (the path-loss cache is
  // already filled, so only Yen is timed), and the delta and solve layers
  // on the smallest member, which certifies in about a second at K*=3.
  for (const auto& sc : family) probe_yen(sc->tmpl->build_graph(), sc->spec, kKStar, layers);
  const Scenario& smallest = *family.front();
  probe_delta(smallest, {1, 3, 5, 8}, layers);
  archex::EncoderOptions eo;
  eo.k_star = 3;
  milp::SolveOptions so;
  so.rel_gap = 0.03;
  so.time_limit_s = 45.0;
  probe_solve(smallest, eo, so, report, layers);
  probe_decode(smallest, 3, so, report, layers);
  archex::workloads::ScalableConfig cfg;
  cfg.total_nodes = kSizes.front().first;
  cfg.end_devices = kSizes.front().second;
  cfg.seed = scalable_seed(opts.seed);
  const auto lines = probe_service(archex::workloads::make_scalable(cfg), {1}, 6, report, layers);
  probe_json(lines, report, layers);
}

}  // namespace wnet::perfbench
