// wnetd-mix: an in-process SolveService (the wnetd daemon minus stdio) fed
// strict JSONL through submit_line by two closed-loop clients; each client
// sends its next line only after its previous request's result event. The
// service runs two workers. A seeded stream mixes three templates, three
// objectives and three K* ladders that extend one another, so later
// requests resume cached prefixes, and a third of the requests bypass the
// cache. Against table1-cost's single long proof this is many small
// warm-started solves plus the protocol, JSON, session-cache and dispatch
// layers, which do most of the work on cache hits.
//
// Each round is a fresh daemon; each (template, objective) of the round is
// one sequence of its three ladders (make_sequences). Odd rounds hold 20x6
// alone, so 20x6 carries half the requests. A third of the requests are then
// cache hits, most of them replays (0.03-0.3 ms), and the median request is
// a cold 20x6 solve (1.5-2.5 ms), set by compute. A mix of two thirds hits
// puts the median in the hits' upper tail, where an idle worker's wake-up
// decides: there it spread by a third of its value between runs of the same
// code.
//
// Closed loop because an open-loop variant at 20 req/s gave p99 of 645, 609
// and 384 ms over three identical runs: queueing behind cold 30x10 ladders
// dominated. Energy-weighted objectives stay out: 30x10 with energy weight
// 50 ends at its 30 s limit, and a request that ends at its limit measures
// the limit, not the program.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/workloads/scenarios.h"
#include "probes.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace wnet::perfbench {

namespace {

using archex::workloads::Scenario;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kSetupSamplesPerIteration = 10;
constexpr int kTracedRounds = 8;  // 144 requests

struct TemplateSize {
  int nodes;
  int devices;
};
constexpr TemplateSize kTemplates[] = {{20, 6}, {25, 8}, {30, 10}};
constexpr double kCostWeights[] = {0.0, 2.0, 3.0};  // 0 = the template's default objective
const std::vector<std::vector<int>> kLadders = {{1, 3}, {1, 3, 5}, {1, 3, 5, 8}};
const std::vector<int> kLongestLadder = kLadders.back();

/// Every template on even rounds, 20x6 alone on odd ones.
std::vector<TemplateSize> round_templates(int round) {
  if (round % 2 == 1) return {kTemplates[0]};
  return {std::begin(kTemplates), std::end(kTemplates)};
}

std::string template_key(const TemplateSize& t) {
  return "scalable:" + std::to_string(t.nodes) + "x" + std::to_string(t.devices);
}

/// Rounds before `round` that hold template `t` (20x6 is in every round).
int appearances(size_t t, int round) { return t == 0 ? round : (round + 1) / 2; }

/// The request stream of one round: one sequence per (template, objective)
/// of the round, its three ladders one after another as one user would send
/// them, one of the three with the cache off. Which ladder bypasses the
/// cache and whether the ladders ascend or descend rotate with the rounds
/// that hold the template, so every six of them hold each of the six
/// variants once: how many requests of a run replay, extend or solve cold
/// does not depend on the seed or on timing. The seed orders the sequences.
std::vector<std::vector<ScriptedRequest>> make_sequences(const RunOptions& opts, int round) {
  std::vector<std::vector<ScriptedRequest>> sequences;
  const auto templates = round_templates(round);
  for (size_t t = 0; t < templates.size(); ++t) {
    for (size_t w = 0; w < std::size(kCostWeights); ++w) {
      const int variant = appearances(t, round) + static_cast<int>(w);
      std::vector<std::vector<int>> ladders = kLadders;
      if (variant / 3 % 2 == 1) std::reverse(ladders.begin(), ladders.end());
      std::vector<ScriptedRequest> seq;
      for (size_t i = 0; i < ladders.size(); ++i) {
        const std::string id = "r" + std::to_string(round) + "-" + std::to_string(sequences.size()) +
                               "-" + std::to_string(i);
        seq.push_back(make_solve_request(id, template_key(templates[t]), kCostWeights[w],
                                         ladders[i], static_cast<int>(i) != variant % 3));
      }
      sequences.push_back(std::move(seq));
    }
  }
  util::Rng rng(util::splitmix64(opts.seed) ^ util::splitmix64(static_cast<uint64_t>(round) + 1));
  std::shuffle(sequences.begin(), sequences.end(), rng.engine());
  return sequences;
}

/// A daemon as the clients meet it: the registry with every template of the
/// mix built, and a running service.
struct Daemon {
  std::unique_ptr<server::TemplateRegistry> registry;
  std::unique_ptr<EventCollector> events;
  std::unique_ptr<server::SolveService> service;
};

Daemon start_daemon(int workers) {
  Daemon d;
  d.registry = std::make_unique<server::TemplateRegistry>();
  for (const TemplateSize& t : kTemplates) (void)d.registry->get(template_key(t));
  d.events = std::make_unique<EventCollector>();
  server::ServiceConfig cfg;
  cfg.workers = workers;
  d.service = std::make_unique<server::SolveService>(*d.registry, cfg, d.events->sink());
  return d;
}

struct Round {
  std::vector<RequestSample> samples;
  std::vector<std::string> lines;
  double wall_s = 0.0;
};

Round run_round(const RunOptions& opts, int round, Daemon& d) {
  const auto sequences = make_sequences(opts, round);
  Round r;
  util::Stopwatch sw;
  r.samples = run_closed_loop(*d.service, *d.events, sequences, kClients);
  r.wall_s = sw.seconds();
  d.service->shutdown();
  r.lines = d.events->lines();
  return r;
}

/// Rounds 0 to `rounds` - 1, each on a fresh daemon, merged into one.
Round run_rounds(const RunOptions& opts, int rounds) {
  Round all;
  for (int i = 0; i < rounds; ++i) {
    Daemon d = start_daemon(kWorkers);
    const Round r = run_round(opts, i, d);
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.lines.insert(all.lines.end(), r.lines.begin(), r.lines.end());
    all.wall_s += r.wall_s;
  }
  return all;
}

/// Canonical result of every (template, objective, ladder) of the mix from
/// a serial run with the cache off: the reference answers.
std::map<std::string, std::string> serial_references() {
  std::vector<ScriptedRequest> script;
  for (const TemplateSize& t : kTemplates) {
    for (const double w : kCostWeights) {
      for (const auto& ladder : kLadders) {
        script.push_back(make_solve_request("ref-" + std::to_string(script.size()),
                                            template_key(t), w, ladder, false));
      }
    }
  }
  Daemon d = start_daemon(1);
  const std::vector<RequestSample> refs = run_closed_loop(*d.service, *d.events, {script}, 1);
  d.service->shutdown();
  std::map<std::string, std::string> out;
  for (const RequestSample& s : refs) {
    if (s.ok) out[s.combo] = s.canonical;
  }
  return out;
}

void check_samples(const std::vector<RequestSample>& samples,
                   const std::map<std::string, std::string>& refs, Report& report) {
  for (const RequestSample& s : samples) {
    const auto it = refs.find(s.combo);
    const bool ok = s.ok && !s.canonical.empty() && it != refs.end() && it->second == s.canonical;
    report.check(ok, "wnetd-mix " + s.id + (s.ok ? ": canonical result differs from the serial "
                                                   "cache-off reference"
                                                 : ": no result event (failed or rejected)"));
  }
}

}  // namespace

void run_wnetd_mix(const RunOptions& opts, Report& report, LayerValues& layers) {
  std::vector<RequestSample> all_samples;
  const auto remember = [&](const Round& r) {
    all_samples.insert(all_samples.end(), r.samples.begin(), r.samples.end());
  };

  if (!opts.trace) {
    std::vector<double> setup_s;
    std::vector<double> op_ms;
    double measured_s = 0.0;
    int round = 0;
    repeat_for(opts.seconds, [&] {
      util::Stopwatch iteration;
      time_setups(kSetupSamplesPerIteration, [] { return start_daemon(kWorkers); }, setup_s);
      Daemon d = start_daemon(kWorkers);
      const Round r = run_round(opts, round, d);
      for (const RequestSample& s : r.samples) op_ms.push_back(s.latency_ms);
      measured_s += r.wall_s;
      remember(r);
      ++round;
      return iteration.seconds();
    });
    check_samples(all_samples, serial_references(), report);
    add_end_to_end(report, setup_s, op_ms, measured_s);
    long hits = 0;
    for (const RequestSample& s : all_samples) hits += s.cache_hit ? 1 : 0;
    report.notes.push_back(std::to_string(round) + " rounds, " + std::to_string(all_samples.size()) +
                           " requests, " + std::to_string(hits) + " cache hits");
    return;
  }

  // The first rounds of a process run slower; a warm-up pass keeps that out
  // of trace.overhead_ratio.
  remember(run_rounds(opts, kTracedRounds));
  const Round untraced = run_rounds(opts, kTracedRounds);
  remember(untraced);

  util::obs::TraceRecorder::global().set_enabled(true);
  const Round traced = run_rounds(opts, kTracedRounds);
  remember(traced);
  layers["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s;
  server_metrics(traced.samples, layers);
  probe_json(traced.lines, report, layers);

  // Outside-in replays on fresh copies of the mix templates, and the solve
  // layers on the largest template at the longest ladder's top rung.
  std::unique_ptr<Scenario> largest;
  for (const TemplateSize& t : kTemplates) {
    archex::workloads::ScalableConfig cfg;
    cfg.total_nodes = t.nodes;
    cfg.end_devices = t.devices;
    auto sc = archex::workloads::make_scalable(cfg);
    probe_yen(build_graph_timed(*sc, layers), sc->spec, kLongestLadder.back(), layers);
    encode_modes(*sc, kLongestLadder.back(), layers);
    probe_delta(*sc, kLongestLadder, layers);
    largest = std::move(sc);
  }
  archex::EncoderOptions eo;
  eo.k_star = kLongestLadder.back();
  milp::SolveOptions so;
  so.rel_gap = 0.03;
  so.time_limit_s = 45.0;
  probe_solve(*largest, eo, so, report, layers);
  probe_decode(*largest, 3, so, report, layers);

  check_samples(all_samples, serial_references(), report);
}

}  // namespace wnet::perfbench
