#include "util/obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/faults/campaign.h"
#include "milp/solver.h"

namespace wnet::util::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(JsonWriter, FlatObjectMatchesRepoStyle) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "alpha");
  w.field("count", 42);
  w.field("ok", true);
  w.field("ratio", 0.5);
  w.key("missing").null_value();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\"name\": \"alpha\", \"count\": 42, \"ok\": true, \"ratio\": 0.5, "
            "\"missing\": null}");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.begin_object();
  w.key("rows").begin_array();
  w.begin_array().value(1).value(2).end_array();
  w.begin_array().value(3).end_array();
  w.end_array();
  w.key("meta").begin_object();
  w.field("empty", false);
  w.end_object();
  w.end_object();
  const std::string doc = w.take();
  EXPECT_EQ(doc, "{\"rows\": [[1, 2], [3]], \"meta\": {\"empty\": false}}");
  EXPECT_TRUE(json_valid(doc));
}

TEST(JsonWriter, EscapesControlCharactersQuotesAndBackslash) {
  JsonWriter w;
  w.begin_object();
  w.field("s", "a\"b\\c\n\t\r\b\f\x01z");
  w.end_object();
  const std::string doc = w.take();
  EXPECT_EQ(doc, "{\"s\": \"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001z\"}");
  EXPECT_TRUE(json_valid(doc));
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(JsonWriter::escape("µs → done"), "µs → done");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(kInf);
  w.value(-kInf);
  w.value(kNan);
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.take(), "[null, null, null, 1.5]");
}

TEST(JsonWriter, NumberFieldAddsFiniteSidecarOnlyWhenNonFinite) {
  JsonWriter w;
  w.begin_object();
  w.number_field("good", 2.25);
  w.number_field("bad", kInf);
  w.number_field("worse", kNan);
  w.end_object();
  const std::string doc = w.take();
  EXPECT_EQ(doc,
            "{\"good\": 2.25, \"bad\": null, \"bad_finite\": false, "
            "\"worse\": null, \"worse_finite\": false}");
  EXPECT_TRUE(json_valid(doc));
}

TEST(JsonWriter, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(JsonWriter::format_double(0.1), "0.1");
  EXPECT_EQ(JsonWriter::format_double(-2.5), "-2.5");
  EXPECT_EQ(JsonWriter::format_double(0.0), "0");
  EXPECT_EQ(JsonWriter::format_double(-0.0), "0");
  EXPECT_EQ(JsonWriter::format_double(kInf), "null");
  EXPECT_EQ(JsonWriter::format_double(kNan), "null");
  // Round-trip exactness for an awkward value.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(JsonWriter::format_double(v)), v);
}

TEST(JsonWriter, RawEmbedsNestedDocuments) {
  JsonWriter inner;
  inner.begin_object();
  inner.field("k", 3);
  inner.end_object();
  const std::string nested = inner.take();

  JsonWriter w;
  w.begin_object();
  w.key("solver").raw(nested);
  w.field("after", 1);
  w.end_object();
  const std::string doc = w.take();
  EXPECT_EQ(doc, "{\"solver\": {\"k\": 3}, \"after\": 1}");
  EXPECT_TRUE(json_valid(doc));
}

TEST(JsonWriter, StructuralMisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW((void)w.take(), std::logic_error);  // scope still open
  }
  {
    JsonWriter w;
    w.begin_array();
    w.end_array();
    EXPECT_THROW(w.begin_object(), std::logic_error);  // second top-level value
  }
  {
    JsonWriter w;
    EXPECT_THROW((void)w.take(), std::logic_error);  // nothing written
  }
}

TEST(JsonValidator, AcceptsStrictJson) {
  for (const char* ok : {
           "{}",
           "[]",
           "null",
           "true",
           "-0.5",
           "0",
           "1e9",
           "1.25E-3",
           "\"\"",
           "\"\\u00e9\\n\"",
           "  {\"a\": [1, 2, {\"b\": null}], \"c\": \"x\"}  \n",
           "[-1, 0.0, 12345678901234567890]",
       }) {
    EXPECT_TRUE(json_valid(ok)) << ok << " -> " << json_error(ok).value_or("");
  }
}

TEST(JsonValidator, RejectsWhatPythonJsonToolRejects) {
  for (const char* bad : {
           "",
           "   ",
           "{",
           "[1, 2",
           "{\"a\": 1,}",        // trailing comma
           "[1, 2,]",            // trailing comma
           "{'a': 1}",           // single quotes
           "{\"a\" 1}",          // missing colon
           "{1: 2}",             // non-string key
           "inf",                // bare non-finite
           "-inf",
           "nan",
           "NaN",
           "Infinity",
           "[inf]",
           "{\"x\": nan}",
           "01",                 // leading zero
           "+1",                 // leading plus
           ".5",                 // missing integer part
           "1.",                 // missing fraction digits
           "1e",                 // missing exponent digits
           "-",                  // lone minus
           "\"\x01\"",           // unescaped control char in string
           "\"unterminated",
           "\"bad \\x escape\"",
           "{} extra",           // trailing garbage
           "[1] [2]",
           "tru",
           "nulll",
       }) {
    EXPECT_FALSE(json_valid(bad)) << "accepted: " << bad;
  }
}

TEST(JsonValidator, ErrorsCarryByteOffsets) {
  const auto err = json_error("{\"a\": 1,}");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("byte 8"), std::string::npos) << *err;
}

// ---------------------------------------------------------------------------
// Fuzz: randomly generated documents through the writer must always satisfy
// the strict validator, whatever strings and numbers they carry.

void fuzz_value(JsonWriter& w, std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth >= 4 ? 4 : 6);
  std::uniform_real_distribution<double> num(-1e18, 1e18);
  std::uniform_int_distribution<int> len(0, 12);
  std::uniform_int_distribution<int> ch(0, 255);
  switch (kind(rng)) {
    case 0:
      w.null_value();
      break;
    case 1:
      w.value(rng() % 2 == 0);
      break;
    case 2: {
      // Mix finite, huge, subnormal and non-finite doubles.
      const int pick = static_cast<int>(rng() % 6);
      const double v = pick == 0   ? kInf
                       : pick == 1 ? kNan
                       : pick == 2 ? std::numeric_limits<double>::denorm_min()
                       : pick == 3 ? std::numeric_limits<double>::max()
                                   : num(rng);
      w.value(v);
      break;
    }
    case 3: {
      std::string s;
      const int n = len(rng);
      for (int i = 0; i < n; ++i) s.push_back(static_cast<char>(ch(rng)));
      w.value(s);
      break;
    }
    case 4:
      w.value(static_cast<long long>(rng()) - static_cast<long long>(rng()));
      break;
    case 5: {
      w.begin_array();
      const int n = len(rng) / 3;
      for (int i = 0; i < n; ++i) fuzz_value(w, rng, depth + 1);
      w.end_array();
      break;
    }
    default: {
      w.begin_object();
      const int n = len(rng) / 3;
      for (int i = 0; i < n; ++i) {
        std::string k;
        const int kl = 1 + len(rng) / 4;
        for (int j = 0; j < kl; ++j) k.push_back(static_cast<char>(ch(rng)));
        w.key(k);
        fuzz_value(w, rng, depth + 1);
      }
      w.end_object();
      break;
    }
  }
}

TEST(JsonFuzz, RandomWriterDocumentsAlwaysValidate) {
  std::mt19937 rng(20260805);
  for (int round = 0; round < 500; ++round) {
    JsonWriter w;
    fuzz_value(w, rng, 0);
    const std::string doc = w.take();
    const auto err = json_error(doc);
    EXPECT_FALSE(err.has_value()) << "round " << round << ": " << err.value_or("") << "\n" << doc;
  }
}

milp::SolveStats fuzz_stats(std::mt19937& rng) {
  std::uniform_real_distribution<double> num(-1e12, 1e12);
  const auto weird = [&](int pick) {
    return pick == 0 ? kInf : pick == 1 ? -kInf : pick == 2 ? kNan : num(rng);
  };
  milp::SolveStats s;
  s.nodes = static_cast<long>(rng() % 1000000);
  s.lp_iterations = static_cast<long>(rng());
  s.time_s = weird(static_cast<int>(rng() % 8));
  s.root_bound = weird(static_cast<int>(rng() % 4));  // frequently non-finite
  s.numerical_failures = static_cast<long>(rng() % 100);
  s.warm_attempts = static_cast<long>(rng() % 1000);
  s.warm_fallbacks = static_cast<long>(rng() % 50);
  s.cold_solves = static_cast<long>(rng() % 1000);
  s.incumbents = static_cast<long>(rng() % 20);
  s.mip_start_used = rng() % 2 == 0;
  const int timeline = static_cast<int>(rng() % 40);
  for (int i = 0; i < timeline; ++i) {
    milp::IncumbentEvent ev;
    ev.time_s = weird(static_cast<int>(rng() % 10));
    ev.nodes = static_cast<long>(rng() % 100000);
    ev.objective = weird(static_cast<int>(rng() % 6));
    s.incumbent_timeline.push_back(ev);
  }
  return s;
}

TEST(JsonFuzz, RandomSolveStatsAlwaysSerializeValid) {
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    const std::string doc = fuzz_stats(rng).to_json();
    const auto err = json_error(doc);
    EXPECT_FALSE(err.has_value()) << "round " << round << ": " << err.value_or("") << "\n" << doc;
  }
}

TEST(JsonFuzz, RandomCampaignReportsAlwaysSerializeValid) {
  using archex::faults::CampaignReport;
  using archex::faults::FaultKind;
  using archex::faults::ScenarioOutcome;
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> db(-50.0, 50.0);
  for (int round = 0; round < 200; ++round) {
    CampaignReport rep;
    const int n = static_cast<int>(rng() % 30);
    for (int i = 0; i < n; ++i) {
      ScenarioOutcome o;
      o.scenario.id = i;
      o.scenario.kind = static_cast<FaultKind>(rng() % 3);
      o.scenario.fading_seed = rng();
      o.passed = rng() % 3 != 0;
      if (!o.passed) {
        const int broken = 1 + static_cast<int>(rng() % 4);
        for (int b = 0; b < broken; ++b) o.broken_routes.push_back(static_cast<int>(rng() % 8));
        o.worst_shortfall_db = rng() % 5 == 0 ? kInf : db(rng);
      }
      const int nodes = static_cast<int>(rng() % 3);
      for (int v = 0; v < nodes; ++v) o.scenario.failed_nodes.push_back(static_cast<int>(rng() % 20));
      const int cuts = static_cast<int>(rng() % 3);
      for (int c = 0; c < cuts; ++c) {
        const int a = static_cast<int>(rng() % 20);
        o.scenario.cut_links.emplace_back(a, a + 1 + static_cast<int>(rng() % 5));
      }
      rep.outcomes.push_back(std::move(o));
    }
    const std::string doc = rep.to_json();
    const auto err = json_error(doc);
    EXPECT_FALSE(err.has_value()) << "round " << round << ": " << err.value_or("") << "\n" << doc;
  }
}

// --- json_parse: the read side added for the solve daemon ----------------

TEST(JsonParse, RoundTripsWriterOutputExactly) {
  JsonWriter w;
  w.begin_object()
      .field("s", "a \"quoted\" \\ line\nnext")
      .field("n", -12.5)
      .field("i", 42)
      .field("b", true);
  w.key("arr").begin_array().value(1).value("two").null_value().end_array();
  w.key("nested").begin_object().field("inner", 0.125).end_object();
  const std::string doc = w.end_object().take();

  std::string error;
  const auto v = json_parse(doc, &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->get_string("s", ""), "a \"quoted\" \\ line\nnext");
  EXPECT_EQ(v->get_number("n", 0.0), -12.5);
  EXPECT_EQ(v->get_number("i", 0.0), 42.0);
  EXPECT_TRUE(v->get_bool("b", false));
  const JsonValue* arr = v->find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->items().size(), 3u);
  EXPECT_EQ(arr->items()[0].as_number(), 1.0);
  EXPECT_EQ(arr->items()[1].as_string(), "two");
  EXPECT_TRUE(arr->items()[2].is_null());
  const JsonValue* nested = v->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->get_number("inner", 0.0), 0.125);
}

TEST(JsonParse, AcceptsExactlyWhatTheValidatorAccepts) {
  const char* cases[] = {
      "null",
      "true",
      "[1, 2, 3]",
      "{\"a\": [{}]}",
      "-0.5e2",
      "\"\\u00e9\\u20ac\"",
      "\"\\ud83d\\ude00\"",  // surrogate pair
      "  {\"k\": \"v\"}  ",
  };
  for (const char* text : cases) {
    std::string error;
    EXPECT_TRUE(json_parse(text, &error).has_value()) << text << " -> " << error;
    EXPECT_FALSE(json_error(text).has_value()) << text;
  }
  const char* bad[] = {
      "",
      "{",
      "[1,]",
      "{'a': 1}",
      "{\"a\": 01}",
      "Infinity",
      "nan",
      "[1] trailing",
      "\"\\ud83d\"",     // lone surrogate
      "\"unterminated",
      "{\"a\" 1}",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(json_parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(" at byte "), std::string::npos) << text << " -> " << error;
    EXPECT_EQ(json_error(text), std::optional<std::string>(error)) << text;
  }
}

TEST(JsonParse, EscapeAndUtf8Decoding) {
  const auto v = json_parse(R"("a\tb\u0041\u00e9")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\tbA\xc3\xa9");
}

TEST(JsonParse, TypedLookupsDistinguishMissingFromWrongKind) {
  const auto v = json_parse(R"({"s": "x", "n": 3})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_string("s"), "x");
  EXPECT_FALSE(v->get_string("n").has_value());      // wrong kind
  EXPECT_FALSE(v->get_string("missing").has_value());
  EXPECT_EQ(v->get_number("n"), 3.0);
  EXPECT_FALSE(v->get_number("s").has_value());
  EXPECT_EQ(v->get_number("s", 7.0), 7.0);  // fallback form
  EXPECT_EQ(v->find("nope"), nullptr);
}

}  // namespace
}  // namespace wnet::util::obs
