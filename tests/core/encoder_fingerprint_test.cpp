// Pins the approximate encodings byte for byte. The delta == fresh suites
// cannot see a change to the fresh model itself (a fresh encode and a K*
// delta run the same append step), nor a change to a delta's row and column
// order (they compare order-free), so this suite hashes the LP text of a
// handful of small fresh encodes and K* deltas — variable order and names,
// row order, coefficients, bounds — against values recorded before that
// step was shared. A deliberate model change must re-record them and say
// why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "channel/propagation.h"
#include "core/encode/encoder.h"

namespace wnet::archex {
namespace {

/// FNV-1a, 64-bit.
uint64_t fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Three sensors crossing an eight-relay field towards one sink, with
/// optional anchors for the localization case.
struct Bed {
  channel::LogDistanceModel model{2.4e9, 2.4};
  ComponentLibrary lib = make_reference_library();
  NetworkTemplate tmpl{model, lib};
  Specification spec;

  explicit Bed(bool anchors = false) {
    tmpl.add_node({"sink", {50, 5}, Role::kSink, NodeKind::kFixed, std::nullopt});
    for (int i = 0; i < 3; ++i) {
      tmpl.add_node({"s" + std::to_string(i), {0.0, 2.0 + 3.0 * i}, Role::kSensor,
                     NodeKind::kFixed, std::nullopt});
    }
    for (int i = 0; i < 8; ++i) {
      tmpl.add_node({"r" + std::to_string(i), {6.0 + 5.5 * i, 2.0 + (i % 3) * 3.0}, Role::kRelay,
                     NodeKind::kCandidate, std::nullopt});
    }
    if (anchors) {
      for (int i = 0; i < 5; ++i) {
        tmpl.add_node({"a" + std::to_string(i), {4.0 + 10.0 * i, 12.0}, Role::kAnchor,
                       NodeKind::kCandidate, std::nullopt});
      }
    }
    spec.link_quality.min_snr_db = 35.0;
    spec.objective = {1.0, 0.0, 0.0};
    for (int i = 0; i < 3; ++i) {
      RouteRequirement r;
      r.source = *tmpl.find_node("s" + std::to_string(i));
      r.dest = 0;
      spec.routes.push_back(r);
    }
  }

  [[nodiscard]] uint64_t hash(const EncoderOptions& eo) const {
    return fnv1a(Encoder(tmpl, spec, eo).encode().model.to_lp_string());
  }
};

EncoderOptions approx(int k = 6) {
  EncoderOptions eo;
  eo.k_star = k;
  return eo;
}

void expect_hash(uint64_t got, uint64_t want, const char* label) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, got);
  EXPECT_EQ(got, want) << label << ": LP text hash " << buf;
}

TEST(EncoderFingerprint, FreshApproxModelsMatchParent) {
  {
    const Bed bed;
    expect_hash(bed.hash(approx()), 0x6a0f3f2ba5c09610ull, "approx");
  }
  {
    const Bed bed;
    EncoderOptions eo = approx();
    eo.lazy_separation = true;
    expect_hash(bed.hash(eo), 0x350e9ca0b76cea94ull, "lazy");
  }
  {
    Bed bed;
    bed.spec.objective = {1.0, 0.02, 0.0};
    bed.spec.lifetime = LifetimeRequirement{};
    bed.spec.lifetime->min_years = 1.0;
    expect_hash(bed.hash(approx()), 0xf6259f87d7b81a23ull, "cost+energy, lifetime");
  }
  {
    const Bed bed;
    EncoderOptions eo = approx();
    HardeningConstraint avoid;
    avoid.kind = HardeningConstraint::Kind::kAvoid;
    avoid.route_index = 1;
    avoid.nodes = {5};
    HardeningConstraint margin;
    margin.kind = HardeningConstraint::Kind::kMargin;
    margin.links = {{4, 5}};
    margin.margin_db = 2.0;
    eo.hardening = {avoid, margin};
    expect_hash(bed.hash(eo), 0x4fc4fb825fe2596dull, "kAvoid + kMargin hardening");
  }
  {
    Bed bed(/*anchors=*/true);
    LocalizationRequirement loc;
    loc.min_anchors = 2;
    loc.min_rss_dbm = -80.0;
    loc.eval_points = {{10, 10}, {25, 8}, {40, 10}};
    bed.spec.localization = loc;
    bed.spec.objective = {1.0, 0.0, 0.5};
    EncoderOptions eo = approx();
    eo.loc_candidates = 3;
    expect_hash(bed.hash(eo), 0x94bd54d1f4abf8eeull, "localization, loc_candidates=3");
  }
  {
    Bed bed;
    for (auto& r : bed.spec.routes) {
      r.replicas = 2;
      r.max_hops = 4;
    }
    expect_hash(bed.hash(approx(8)), 0xa6bb8501ccffe913ull, "replicas=2, max_hops=4");
    EncoderOptions eo = approx(8);
    eo.disjoint_strategy = EncoderOptions::DisjointStrategy::kNone;
    expect_hash(bed.hash(eo), 0xedce12eeb2ffa3e2ull, "replicas=2, max_hops=4, no disconnect");
  }
}

/// Hash of the delta-extended model after encode_k(1) then encode_k(k).
uint64_t delta_hash(const Bed& bed, const EncoderOptions& eo, int k) {
  IncrementalEncoder session(bed.tmpl, bed.spec, eo);
  session.encode_k(1);
  const EncodedProblem& ep = session.encode_k(k);
  EXPECT_GT(ep.stats.reused_candidates, 0) << "K*=1 -> " << k << " rebuilt instead of extending";
  return fnv1a(ep.model.to_lp_string());
}

// A delta keeps its own row and column order, the one the K* ladders were
// measured with (the solver's search depends on it), so its models are
// pinned the same way.
TEST(EncoderFingerprint, DeltaModelsMatchParent) {
  {
    const Bed bed;
    expect_hash(delta_hash(bed, approx(), 6), 0x45e1c3128f19adcbull, "approx delta");
  }
  {
    const Bed bed;
    EncoderOptions eo = approx();
    eo.lazy_separation = true;
    expect_hash(delta_hash(bed, eo, 6), 0x1345bdd9b65b4293ull, "lazy delta");
  }
  {
    Bed bed;
    bed.spec.objective = {1.0, 0.02, 0.0};
    bed.spec.lifetime = LifetimeRequirement{};
    bed.spec.lifetime->min_years = 1.0;
    expect_hash(delta_hash(bed, approx(), 6), 0x605e1913bdcf3d00ull, "cost+energy, lifetime delta");
  }
  {
    const Bed bed;
    EncoderOptions eo = approx();
    HardeningConstraint avoid;
    avoid.kind = HardeningConstraint::Kind::kAvoid;
    avoid.route_index = 1;
    avoid.nodes = {5};
    eo.hardening = {avoid};
    expect_hash(delta_hash(bed, eo, 6), 0x70754940a7c9d693ull, "kAvoid delta");
  }
  {
    Bed bed;
    for (auto& r : bed.spec.routes) r.replicas = 2;
    EncoderOptions eo = approx();
    eo.disjoint_strategy = EncoderOptions::DisjointStrategy::kNone;
    expect_hash(delta_hash(bed, eo, 8), 0xe26b384ce7e08feeull, "replicas=2, no disconnect, delta");
  }
}

}  // namespace
}  // namespace wnet::archex
