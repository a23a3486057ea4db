#include "common/telemetry.h"

#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "mechanism/noise_mechanism.h"

namespace nimbus::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker for the exporters: validates the grammar
// subset the telemetry code emits (objects, arrays, strings with
// escapes, numbers, booleans). Good enough to catch unbalanced braces,
// bad escaping, and trailing commas without an external parser.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipSpace();
    if (!Value()) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) {
        return false;
      }
      SkipSpace();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipSpace();
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Unescaped control character.
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(CounterTest, IncrementAndDelta) {
  Registry::Global().ResetForTest();
  Counter& c = Registry::Global().GetCounter("test_counter_total");
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
  // The registry hands back the same object for the same name.
  EXPECT_EQ(&Registry::Global().GetCounter("test_counter_total"), &c);
}

TEST(GaugeTest, SetAddUpdateMax) {
  Registry::Global().ResetForTest();
  Gauge& g = Registry::Global().GetGauge("test_gauge");
  g.Set(2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.UpdateMax(3.0);  // Below current reading: no-op.
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.UpdateMax(10.0);
  EXPECT_DOUBLE_EQ(g.Value(), 10.0);
}

TEST(HistogramTest, CountsSumsAndBuckets) {
  Registry::Global().ResetForTest();
  Histogram& h = Registry::Global().GetHistogram("test_latency_us");
  h.Observe(1.0);
  h.Observe(3.0);
  h.Observe(1e9);  // Beyond the last boundary: lands in the overflow slot.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 1e9 + 4.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);
  ASSERT_EQ(snap.buckets.size(), snap.boundaries.size() + 1);
  EXPECT_EQ(snap.buckets.back(), 1);
  int64_t total = 0;
  for (int64_t b : snap.buckets) {
    total += b;
  }
  EXPECT_EQ(total, snap.count);
}

TEST(HistogramTest, QuantileEdges) {
  Registry::Global().ResetForTest();
  Histogram& h = Registry::Global().GetHistogram("test_quantile_us");
  // Empty histogram: every quantile is 0.
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.5), 0.0);

  for (int i = 1; i <= 100; ++i) {
    h.Observe(static_cast<double>(i));
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.0);    // Clamped to observed min.
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 100.0);  // Clamped to observed max.
  const double p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
  const double p99 = snap.Quantile(0.99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 100.0);
}

TEST(RegistryTest, SnapshotSortedByName) {
  Registry::Global().ResetForTest();
  Registry::Global().GetCounter("zzz_total").Increment();
  Registry::Global().GetCounter("aaa_total").Increment();
  Registry::Global().GetGauge("mmm_gauge").Set(1.0);
  const auto snap = Registry::Global().Snapshot();
  ASSERT_GE(snap.size(), 3u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
}

TEST(RegistryTest, ResetKeepsCachedReferencesValid) {
  Counter& c = Registry::Global().GetCounter("test_reset_total");
  c.Increment(7);
  Registry::Global().ResetForTest();
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  EXPECT_EQ(Registry::Global().GetCounter("test_reset_total").Value(), 1);
}

TEST(VecTest, WithLabelInternsOnceAndAccumulates) {
  CounterVec& vec =
      Registry::Global().GetCounterVec("vec_intern_total", "offering");
  Counter& logistic = vec.WithLabel("logistic");
  logistic.Increment(2);
  // Same label value -> the same series object.
  EXPECT_EQ(&vec.WithLabel("logistic"), &logistic);
  vec.WithLabel("svm").Increment();
  // Re-fetching the family by name returns the same family.
  EXPECT_EQ(&Registry::Global().GetCounterVec("vec_intern_total", "offering"),
            &vec);

  const auto snap = Registry::Global().Snapshot();
  bool found = false;
  for (const auto& e : snap) {
    if (e.name != "vec_intern_total") {
      continue;
    }
    found = true;
    EXPECT_EQ(e.kind, MetricKind::kCounterVec);
    EXPECT_EQ(e.label_key, "offering");
    ASSERT_EQ(e.series.size(), 2u);
    // Series are sorted by label value, deterministically.
    EXPECT_EQ(e.series[0].label, "logistic");
    EXPECT_EQ(e.series[0].counter_value, 2);
    EXPECT_EQ(e.series[1].label, "svm");
    EXPECT_EQ(e.series[1].counter_value, 1);
  }
  EXPECT_TRUE(found);
}

TEST(VecTest, UnboundedLabelsCollapseIntoOverflowSeries) {
  CounterVec& vec =
      Registry::Global().GetCounterVec("vec_overflow_total", "buyer");
  for (int i = 0; i < 200; ++i) {
    vec.WithLabel("buyer-" + std::to_string(i)).Increment();
  }
  const auto snap = Registry::Global().Snapshot();
  for (const auto& e : snap) {
    if (e.name != "vec_overflow_total") {
      continue;
    }
    // The family is bounded: at most kMaxSeries plus the overflow
    // bucket, never 200 series.
    EXPECT_LE(e.series.size(), CounterVec::kMaxSeries + 1);
    int64_t total = 0;
    int64_t overflow = -1;
    for (const auto& v : e.series) {
      total += v.counter_value;
      if (v.label == CounterVec::kOverflowLabel) {
        overflow = v.counter_value;
      }
    }
    EXPECT_EQ(total, 200);  // No increment is lost, only relabeled.
    EXPECT_GT(overflow, 0);
  }
}

TEST(VecTest, GaugeAndHistogramFamiliesTrackPerLabelState) {
  GaugeVec& gauges =
      Registry::Global().GetGaugeVec("vec_revenue_gauge", "offering");
  gauges.WithLabel("logistic").Set(12.5);
  gauges.WithLabel("svm").Add(4.0);

  HistogramVec& histograms =
      Registry::Global().GetHistogramVec("vec_latency_us", "offering");
  histograms.WithLabel("logistic").Observe(10.0);
  histograms.WithLabel("logistic").Observe(30.0);

  const auto snap = Registry::Global().Snapshot();
  for (const auto& e : snap) {
    if (e.name == "vec_revenue_gauge") {
      ASSERT_EQ(e.series.size(), 2u);
      EXPECT_DOUBLE_EQ(e.series[0].gauge_value, 12.5);
      EXPECT_DOUBLE_EQ(e.series[1].gauge_value, 4.0);
    }
    if (e.name == "vec_latency_us") {
      ASSERT_EQ(e.series.size(), 1u);
      EXPECT_EQ(e.series[0].histogram.count, 2);
      EXPECT_DOUBLE_EQ(e.series[0].histogram.sum, 40.0);
    }
  }
}

TEST(VecTest, PrometheusRendersLabeledSeries) {
  Registry::Global().ResetForTest();
  CounterVec& vec =
      Registry::Global().GetCounterVec("vec_prom_total", "offering");
  vec.WithLabel("logistic").Increment(3);
  vec.WithLabel("with\"quote\\and\nnewline").Increment();
  Registry::Global()
      .GetHistogramVec("vec_prom_us", "offering")
      .WithLabel("logistic")
      .Observe(5.0);

  const std::string prom =
      SnapshotToPrometheus(Registry::Global().Snapshot());
  // The TYPE line advertises the base kind, not an invented "vec" type.
  EXPECT_NE(prom.find("# TYPE nimbus_vec_prom_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("nimbus_vec_prom_total{offering=\"logistic\"} 3"),
            std::string::npos)
      << prom;
  // Label values are escaped per the exposition format.
  EXPECT_NE(
      prom.find(
          "nimbus_vec_prom_total{offering=\"with\\\"quote\\\\and\\nnewline\"}"),
      std::string::npos)
      << prom;
  // Histogram series render the full _bucket/_sum/_count family with
  // the series label alongside le.
  EXPECT_NE(prom.find("# TYPE nimbus_vec_prom_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("nimbus_vec_prom_us_count{offering=\"logistic\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string json = SnapshotToJson(Registry::Global().Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

#if defined(__SANITIZE_THREAD__)
#define NIMBUS_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NIMBUS_UNDER_TSAN 1
#endif
#endif

// Death tests fork, which TSan dislikes; the mismatch check itself is
// still exercised in TSan builds via the lint script.
#if defined(GTEST_HAS_DEATH_TEST) && !defined(NIMBUS_UNDER_TSAN)
TEST(RegistryDeathTest, KindMismatchIsFatal) {
  // Name assembled at runtime so scripts/check_metrics_names.sh (which
  // lints literal registrations for exactly this clash) skips it.
  const std::string name = std::string("test_kind_") + "clash";
  Registry::Global().GetCounter(name);
  EXPECT_DEATH(Registry::Global().GetGauge(name), "registered");
}
#endif

TEST(ExportTest, TextAndPrometheusAndJson) {
  Registry::Global().ResetForTest();
  Registry::Global().GetCounter("export_total").Increment(3);
  Registry::Global().GetGauge("export_gauge").Set(1.5);
  Registry::Global().GetHistogram("export_us").Observe(4.0);
  const auto snap = Registry::Global().Snapshot();

  const std::string text = SnapshotToText(snap);
  EXPECT_NE(text.find("export_total"), std::string::npos);
  EXPECT_NE(text.find("export_gauge"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);

  const std::string prom = SnapshotToPrometheus(snap);
  EXPECT_NE(prom.find("nimbus_export_total 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nimbus_export_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("nimbus_export_us_count 1"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string json = SnapshotToJson(snap);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"export_total\""), std::string::npos);
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(LogFormatTest, TextAndJsonLines) {
  const std::string text = FormatLogLine(LogFormat::kText,
                                         LogSeverity::kWarning, "broker.cc",
                                         42, "low revenue");
  EXPECT_EQ(text, "[W broker.cc:42] low revenue\n");

  const std::string json = FormatLogLine(LogFormat::kJson,
                                         LogSeverity::kError, "ledger.cc", 7,
                                         "bad \"quote\"\nretry");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
  EXPECT_TRUE(JsonChecker(json.substr(0, json.size() - 1)).Valid()) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"ledger.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
}

TEST(TraceTest, JsonSchemaRoundTrip) {
  ClearTraceForTest();
  SetTracingEnabled(true);
  {
    TraceSpan outer("test.outer");
    TraceSpan inner("test.inner");
  }
  SetTracingEnabled(false);
  EXPECT_EQ(TraceEventCount(), 2);
  EXPECT_EQ(TraceDroppedCount(), 0);

  const std::string json = TraceToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"nimbus\""), std::string::npos);
  ClearTraceForTest();
  EXPECT_EQ(TraceEventCount(), 0);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  ClearTraceForTest();
  SetTracingEnabled(false);
  {
    TraceSpan span("test.disabled");
  }
  EXPECT_EQ(TraceEventCount(), 0);
}

// Hammer the registry and the trace buffer from the worker pool; run
// under NIMBUS_SANITIZE=thread this is the data-race certification for
// the whole telemetry substrate.
TEST(TelemetryThreadingTest, ConcurrentUpdatesAreExact) {
  setenv("NIMBUS_THREADS", "8", /*overwrite=*/1);
  Registry::Global().ResetForTest();
  ClearTraceForTest();
  SetTracingEnabled(true);

  Counter& hits = Registry::Global().GetCounter("hammer_total");
  Gauge& acc = Registry::Global().GetGauge("hammer_gauge");
  Gauge& high = Registry::Global().GetGauge("hammer_high_water");
  Histogram& lat = Registry::Global().GetHistogram("hammer_us");

  constexpr int64_t kIters = 4000;
  ParallelFor(0, kIters, [&](int64_t i) {
    TraceSpan span("test.hammer");
    hits.Increment();
    acc.Add(1.0);
    high.UpdateMax(static_cast<double>(i));
    lat.Observe(static_cast<double>(i % 97) + 1.0);
    // Concurrent registration of the same name must converge to one
    // metric object.
    Registry::Global().GetCounter("hammer_register_race_total").Increment();
  });

  SetTracingEnabled(false);
  EXPECT_EQ(hits.Value(), kIters);
  EXPECT_DOUBLE_EQ(acc.Value(), static_cast<double>(kIters));
  EXPECT_DOUBLE_EQ(high.Value(), static_cast<double>(kIters - 1));
  const HistogramSnapshot snap = lat.Snapshot();
  EXPECT_EQ(snap.count, kIters);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 97.0);
  EXPECT_EQ(
      Registry::Global().GetCounter("hammer_register_race_total").Value(),
      kIters);
  EXPECT_EQ(TraceEventCount() + TraceDroppedCount(), kIters);
  ClearTraceForTest();
  unsetenv("NIMBUS_THREADS");
}

// ---------------------------------------------------------------------------
// Observation-only regression: instrumented SimulateMarket must produce
// bit-identical market output whether tracing is on or off, and the
// deterministic projection of the metrics snapshot (names, kinds,
// counter values, histogram observation counts) must be identical across
// identical-seed runs.

market::SimulationResult RunSeededMarket() {
  Rng rng(11);
  data::RegressionSpec spec;
  spec.num_examples = 200;
  spec.num_features = 4;
  spec.noise_stddev = 0.3;
  data::Dataset all = data::GenerateRegression(spec, rng);
  data::TrainTestSplit split = data::Split(all, 0.75, rng);
  auto model = ml::ModelSpec::Create(ml::ModelKind::kLinearRegression, 0.0);
  NIMBUS_CHECK(model.ok());
  market::Broker::Options options;
  options.error_curve_points = 8;
  options.samples_per_curve_point = 50;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 100.0;
  auto broker = market::Broker::Create(
      std::move(split), std::move(*model),
      std::make_unique<mechanism::GaussianMechanism>(), options);
  NIMBUS_CHECK(broker.ok()) << broker.status();

  auto points =
      market::MakeBuyerPoints(market::ValueShape::kConcave,
                              market::DemandShape::kUniform, 10, 1.0, 100.0,
                              100.0);
  NIMBUS_CHECK(points.ok());
  auto seller = market::Seller::Create(*points);
  NIMBUS_CHECK(seller.ok());
  auto pricing = seller->NegotiatePricing();
  NIMBUS_CHECK(pricing.ok());
  broker->SetPricingFunction(*pricing);

  auto result = market::SimulateMarket(*broker, *points, "squared");
  NIMBUS_CHECK(result.ok()) << result.status();
  return *result;
}

// The deterministic projection of a snapshot: everything except
// wall-clock-derived values (histogram sums/min/max, timing gauges, the
// "_us_total" counters that accumulate elapsed microseconds) and the
// "parallel_" pool metrics — how many task envelopes the pool enqueues
// for a shared index range is a scheduling artifact, unlike the
// workload counters, which count work items.
std::string DeterministicProjection(
    const std::vector<Registry::SnapshotEntry>& snap) {
  std::string out;
  for (const Registry::SnapshotEntry& e : snap) {
    const std::string kWallClockSuffix = "_us_total";
    if (e.name.size() >= kWallClockSuffix.size() &&
        e.name.compare(e.name.size() - kWallClockSuffix.size(),
                       kWallClockSuffix.size(), kWallClockSuffix) == 0) {
      continue;
    }
    if (e.name.rfind("parallel_", 0) == 0) {
      continue;
    }
    out += e.name;
    out += '|';
    out += MetricKindName(e.kind);
    out += '|';
    if (e.kind == MetricKind::kCounter) {
      out += std::to_string(e.counter_value);
    } else if (e.kind == MetricKind::kHistogram) {
      out += std::to_string(e.histogram.count);
    }
    out += '\n';
  }
  return out;
}

TEST(TelemetryRegressionTest, InstrumentationIsObservationOnly) {
  setenv("NIMBUS_THREADS", "8", /*overwrite=*/1);

  Registry::Global().ResetForTest();
  ClearTraceForTest();
  SetTracingEnabled(false);
  const market::SimulationResult baseline = RunSeededMarket();
  const std::string projection_off =
      DeterministicProjection(Registry::Global().Snapshot());

  Registry::Global().ResetForTest();
  ClearTraceForTest();
  SetTracingEnabled(true);
  const market::SimulationResult traced = RunSeededMarket();
  SetTracingEnabled(false);
  const std::string projection_on =
      DeterministicProjection(Registry::Global().Snapshot());

  // Bit-identical market output: tracing observes, never perturbs.
  EXPECT_EQ(baseline.revenue, traced.revenue);
  EXPECT_EQ(baseline.affordability, traced.affordability);
  EXPECT_EQ(baseline.transactions, traced.transactions);
  EXPECT_EQ(baseline.mean_delivered_error, traced.mean_delivered_error);

  // Deterministic snapshot projection identical across runs.
  EXPECT_EQ(projection_off, projection_on);

  // The instrumented hot paths actually fired. The broker family is
  // labeled per offering; sum across series.
  const auto snap = Registry::Global().Snapshot();
  int64_t quotes = 0;
  for (const Registry::SnapshotEntry& e : snap) {
    if (e.name == "broker_quotes_total") {
      for (const auto& series : e.series) {
        quotes += series.counter_value;
      }
    }
  }
  EXPECT_GT(quotes, 0);

  // The trace of the instrumented run contains the expected spans.
  const std::string json = TraceToJson();
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"name\":\"broker.quote\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"market.buyer_eval\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"error_curve.point\""), std::string::npos);
  ClearTraceForTest();
  unsetenv("NIMBUS_THREADS");
}

}  // namespace
}  // namespace nimbus::telemetry
