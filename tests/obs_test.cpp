// Observability layer unit tests: metrics registry semantics (counter /
// gauge / histogram, merge laws, quantile brackets), JSONL event rendering,
// the unified enum_name helper, and a golden end-to-end trace for one seeded
// run (pins the JSONL byte format -- update deliberately, never casually).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "config/classify.h"
#include "core/wait_free_gather.h"
#include "obs/obs.h"
#include "sim/sim.h"
#include "util/enum_name.h"

namespace gather {
namespace {

// ---------------------------------------------------------------------------
// metrics_registry

TEST(Metrics, CountersAndGaugesAreStableReferences) {
  obs::metrics_registry reg;
  std::uint64_t& a = reg.counter("a");
  a = 3;
  reg.counter("b") = 5;  // inserting more names must not move `a`
  reg.counter("zz") = 7;
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(reg.counter("a"), 3u);

  reg.gauge("g") = 1.5;
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 1.5);
  EXPECT_FALSE(reg.empty());
}

TEST(Metrics, FindDoesNotCreate) {
  obs::metrics_registry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_TRUE(reg.empty());
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  obs::histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (boundary is inclusive)
  h.observe(3.0);   // bucket 2 (<= 4)
  h.observe(100.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  const std::vector<std::uint64_t> want = {2, 0, 1, 1};
  EXPECT_EQ(h.bucket_counts(), want);
}

TEST(Metrics, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(obs::histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::histogram(std::vector<double>{}), std::invalid_argument);
}

TEST(Metrics, HistogramQuantileBrackets) {
  obs::histogram h(obs::pow2_bounds(6));  // 1 2 4 8 16 32
  for (int i = 0; i < 10; ++i) h.observe(3.0);  // all in (2, 4]
  const auto mid = h.quantile_bounds(0.5);
  EXPECT_DOUBLE_EQ(mid.lower, 2.0);
  EXPECT_DOUBLE_EQ(mid.upper, 4.0);

  h.observe(1000.0);  // one overflow observation
  const auto top = h.quantile_bounds(1.0);
  EXPECT_DOUBLE_EQ(top.lower, 32.0);
  EXPECT_TRUE(top.upper > 1e308);  // +inf upper edge for the overflow bucket

  EXPECT_DOUBLE_EQ(obs::histogram(obs::pow2_bounds(4)).quantile_bounds(0.5).upper,
                   0.0);  // empty histogram -> {0, 0}
}

TEST(Metrics, MergeAddsCountersAndBucketsTakesGaugeMax) {
  obs::metrics_registry a, b;
  a.counter("c") = 2;
  b.counter("c") = 5;
  b.counter("only_b") = 1;
  a.gauge("g") = 0.25;
  b.gauge("g") = 0.75;
  a.hist("h", obs::pow2_bounds(4)).observe(3.0);
  b.hist("h", obs::pow2_bounds(4)).observe(3.0);

  a.merge(b);
  EXPECT_EQ(a.counter("c"), 7u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 0.75);
  EXPECT_EQ(a.hist("h", obs::pow2_bounds(4)).count(), 2u);
}

TEST(Metrics, MergeIsOrderIndependent) {
  auto make = [](std::uint64_t c, double g, double v) {
    obs::metrics_registry r;
    r.counter("c") = c;
    r.gauge("g") = g;
    r.hist("h", obs::pow2_bounds(6)).observe(v);
    return r;
  };
  const auto r1 = make(1, 0.1, 2.0);
  const auto r2 = make(10, 0.9, 17.0);
  const auto r3 = make(100, 0.5, 60.0);

  obs::metrics_registry fwd, rev;
  fwd.merge(r1); fwd.merge(r2); fwd.merge(r3);
  rev.merge(r3); rev.merge(r2); rev.merge(r1);
  EXPECT_EQ(fwd.to_json(), rev.to_json());
}

TEST(Metrics, MergeRejectsMismatchedHistogramBounds) {
  obs::metrics_registry a, b;
  a.hist("h", obs::pow2_bounds(4)).observe(1.0);
  b.hist("h", obs::pow2_bounds(8)).observe(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Metrics, ToJsonIsSortedAndStable) {
  obs::metrics_registry reg;
  reg.counter("zeta") = 1;
  reg.counter("alpha") = 2;
  reg.gauge("mid") = 0.5;
  const std::string json = reg.to_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_EQ(json,
            "{\"counters\":{\"alpha\":2,\"zeta\":1},\"gauges\":{\"mid\":0.5},"
            "\"histograms\":{}}");
}

// ---------------------------------------------------------------------------
// enum_name

TEST(EnumName, RoundTripsEveryEnum) {
  using config::config_class;
  EXPECT_EQ(enum_name(config_class::bivalent), "B");
  EXPECT_EQ(enum_name(config_class::quasi_regular), "QR");
  EXPECT_EQ(enum_from_name("L1W", config_class::asymmetric),
            config_class::linear_1w);
  EXPECT_EQ(enum_from_name("bogus", config_class::asymmetric),
            config_class::asymmetric);

  EXPECT_EQ(enum_name(sim::sim_status::gathered), "gathered");
  EXPECT_EQ(enum_name(sim::sim_status::round_limit), "round-limit");
  EXPECT_EQ(enum_name(sim::async_policy::random_interleaving),
            "random-interleaving");

  // to_string stays the public spelling and must agree with enum_name.
  EXPECT_EQ(config::to_string(config_class::multiple),
            enum_name(config_class::multiple));
  EXPECT_EQ(sim::to_string(sim::sim_status::stalled),
            enum_name(sim::sim_status::stalled));
}

// ---------------------------------------------------------------------------
// JSONL rendering

std::string line_of(const obs::event& e) {
  std::string out;
  obs::append_jsonl(out, e);
  return out;
}

TEST(Jsonl, FixedKeyOrderPerKind) {
  EXPECT_EQ(line_of(obs::event::round_start(1, 2, "A", 7)),
            "{\"event\":\"round_start\",\"run\":1,\"round\":2,\"cls\":\"A\","
            "\"live\":7}");
  EXPECT_EQ(line_of(obs::event::activation(0, 3, 4)),
            "{\"event\":\"activation\",\"run\":0,\"round\":3,\"robot\":4}");
  EXPECT_EQ(line_of(obs::event::move_truncated(0, 3, 4, 1.5, 0.5)),
            "{\"event\":\"move_truncated\",\"run\":0,\"round\":3,\"robot\":4,"
            "\"want\":1.5,\"got\":0.5}");
  EXPECT_EQ(line_of(obs::event::crash(0, 9, 2)),
            "{\"event\":\"crash\",\"run\":0,\"round\":9,\"robot\":2}");
  EXPECT_EQ(line_of(obs::event::class_transition(0, 5, "A", "M")),
            "{\"event\":\"class_transition\",\"run\":0,\"round\":5,"
            "\"from\":\"A\",\"to\":\"M\"}");
  EXPECT_EQ(line_of(obs::event::lemma_violation(0, 5, "wait-freeness")),
            "{\"event\":\"lemma_violation\",\"run\":0,\"round\":5,"
            "\"lemma\":\"wait-freeness\"}");
  EXPECT_EQ(line_of(obs::event::gathered(0, 12, 1.25, -2.5)),
            "{\"event\":\"gathered\",\"run\":0,\"round\":12,\"x\":1.25,"
            "\"y\":-2.5}");
}

TEST(Jsonl, StringEscaping) {
  std::string out;
  obs::json_append_string(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(Jsonl, DoublesUseShortestRoundTripForm) {
  std::string out;
  obs::json_append_double(out, 0.1);
  EXPECT_EQ(out, "0.1");
  out.clear();
  obs::json_append_double(out, 1.0 / 0.0);
  EXPECT_EQ(out, "null");  // non-finite values cannot appear in JSON
}

// ---------------------------------------------------------------------------
// Golden end-to-end trace

// One tiny deterministic run (synchronous scheduler, full movement, no
// crashes, fixed seed): four robots on a square gather via the QR center in
// one round.  The bytes below pin the event schema; if you change the JSONL
// format on purpose, update them and docs/OBSERVABILITY.md together.
TEST(Jsonl, GoldenTraceForSeededRun) {
  const core::wait_free_gather algo;
  auto sched = sim::make_synchronous();
  auto move = sim::make_full_movement();
  auto crash = sim::make_no_crash();

  sim::sim_spec spec;
  spec.initial = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  spec.algorithm = &algo;
  spec.scheduler = sched.get();
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.options.seed = 11;
  spec.run_id = 42;

  std::string trace;
  obs::jsonl_string_sink sink(&trace);
  spec.sink = &sink;

  const auto res = sim::run(spec);
  ASSERT_EQ(res.status, sim::sim_status::gathered);
  ASSERT_EQ(res.rounds, 1u);

  EXPECT_EQ(trace,
            "{\"event\":\"round_start\",\"run\":42,\"round\":0,\"cls\":\"QR\","
            "\"live\":4}\n"
            "{\"event\":\"activation\",\"run\":42,\"round\":0,\"robot\":0}\n"
            "{\"event\":\"activation\",\"run\":42,\"round\":0,\"robot\":1}\n"
            "{\"event\":\"activation\",\"run\":42,\"round\":0,\"robot\":2}\n"
            "{\"event\":\"activation\",\"run\":42,\"round\":0,\"robot\":3}\n"
            "{\"event\":\"round_start\",\"run\":42,\"round\":1,\"cls\":\"M\","
            "\"live\":4}\n"
            "{\"event\":\"class_transition\",\"run\":42,\"round\":1,"
            "\"from\":\"QR\",\"to\":\"M\"}\n"
            "{\"event\":\"gathered\",\"run\":42,\"round\":1,\"x\":1,\"y\":1}\n");

  // The same run, re-executed, produces the same bytes.
  std::string again;
  obs::jsonl_string_sink sink2(&again);
  sim::sim_spec spec2 = spec;
  spec2.sink = &sink2;
  (void)sim::run(spec2);
  EXPECT_EQ(trace, again);
}

// ---------------------------------------------------------------------------
// Profiler

TEST(Prof, DisabledByDefaultRecordsNothing) {
  ASSERT_EQ(obs::current_prof(), nullptr);
  { GATHER_PROF("obs.test.site"); }
  EXPECT_EQ(obs::current_prof(), nullptr);
}

TEST(Prof, SessionScopesRecordingAndRestores) {
  obs::prof_registry reg;
  {
    obs::prof_session session(&reg);
    ASSERT_EQ(obs::current_prof(), &reg);
    { GATHER_PROF("obs.test.site"); }
    { GATHER_PROF("obs.test.site"); }
  }
  EXPECT_EQ(obs::current_prof(), nullptr);
  const auto it = reg.sites().find("obs.test.site");
  ASSERT_NE(it, reg.sites().end());
  EXPECT_EQ(it->second.calls, 2u);
}

TEST(Prof, ExportProducesCountersAndHistogram) {
  obs::prof_registry reg;
  {
    obs::prof_session session(&reg);
    GATHER_PROF("obs.test.exported");
  }
  obs::metrics_registry metrics;
  obs::export_profile(reg, metrics);
  const std::uint64_t* calls = metrics.find_counter("prof.obs.test.exported.calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(*calls, 1u);
  EXPECT_NE(metrics.find_counter("prof.obs.test.exported.total_ns"), nullptr);
  const obs::histogram* h = metrics.find_histogram("prof.obs.test.exported.ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
}

TEST(Prof, ExportedHistogramSumIsExactPastTopBucket) {
  // 10 ms lands in the top bounded bucket (~16.8 ms), 300 ms in the
  // overflow bucket; the histogram sum must still be the exact total.
  obs::prof_registry reg;
  reg.record("obs.test.slow", 10'000'000);
  reg.record("obs.test.slow", 300'000'000);
  obs::metrics_registry metrics;
  obs::export_profile(reg, metrics);
  const std::uint64_t* total =
      metrics.find_counter("prof.obs.test.slow.total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(*total, 310'000'000u);
  const obs::histogram* h = metrics.find_histogram("prof.obs.test.slow.ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), static_cast<double>(*total));
  const auto& stats = reg.sites().find("obs.test.slow")->second;
  ASSERT_EQ(h->bucket_counts().size(), stats.buckets.size());
  for (std::size_t i = 0; i < stats.buckets.size(); ++i) {
    EXPECT_EQ(h->bucket_counts()[i], stats.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(h->bucket_counts()[obs::prof_bucket_count - 1], 1u);
  EXPECT_EQ(h->bucket_counts()[obs::prof_bucket_count], 1u);
}

}  // namespace
}  // namespace gather
