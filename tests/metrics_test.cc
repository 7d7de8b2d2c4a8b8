// Observability layer tests: the metrics registry must stay consistent
// under ThreadPool concurrency, traces must keep their nesting invariants
// and bounded buffers, the profile JSON must match the documented
// "sudaf.profile.v1" schema (docs/observability.md), and ExecStats must be
// a faithful projection of the registry delta.

#include <cmath>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "gtest/gtest.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, HandlesAreStableAndFindOrCreate) {
  MetricsRegistry registry;
  Counter* a = registry.counter("sudaf.test.a");
  Counter* again = registry.counter("sudaf.test.a");
  EXPECT_EQ(a, again);
  a->Add(3);
  again->Add();
  EXPECT_EQ(registry.Snapshot().counter("sudaf.test.a"), 4);
  // Kinds live in separate namespaces: a dcounter may reuse the name.
  registry.dcounter("sudaf.test.a")->Add(2.5);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("sudaf.test.a"), 4);
  EXPECT_DOUBLE_EQ(snap.dcounter("sudaf.test.a"), 2.5);
  // Unregistered names read as zero, not as errors.
  EXPECT_EQ(snap.counter("sudaf.test.never"), 0);
}

TEST(MetricsRegistryTest, DeltaSubtractsCountersAndDcounters) {
  MetricsRegistry registry;
  registry.counter("c")->Add(10);
  registry.dcounter("d")->Add(1.5);
  registry.gauge("g")->Set(7);
  MetricsSnapshot before = registry.Snapshot();
  registry.counter("c")->Add(5);
  registry.dcounter("d")->Add(2.0);
  registry.gauge("g")->Set(9);
  MetricsSnapshot delta = registry.Snapshot().Delta(before);
  EXPECT_EQ(delta.counter("c"), 5);
  EXPECT_DOUBLE_EQ(delta.dcounter("d"), 2.0);
  // Gauges are instantaneous: Delta carries the latest value.
  EXPECT_DOUBLE_EQ(delta.gauge("g"), 9);
}

TEST(MetricsRegistryTest, HistogramTracksCountSumMinMax) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("h");
  for (double v : {0.25, 4.0, 64.0}) h->Observe(v);
  Histogram::Snapshot snap = h->snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 68.25);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 64.0);
  int64_t bucketed = 0;
  for (int64_t b : snap.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 3);
}

// Concurrent updates, registrations and snapshots through a real
// ThreadPool; the TSan shard is the point of this test. Totals must come
// out exact — no lost updates.
TEST(MetricsRegistryTest, SnapshotConsistentUnderThreadPoolConcurrency) {
  MetricsRegistry registry;
  ThreadPool pool(4);
  constexpr int64_t kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  pool.ParallelFor(kTasks, [&registry](int64_t i) {
    // Racing find-or-create on a small name set exercises registration.
    Counter* c = registry.counter("concurrent." + std::to_string(i % 4));
    DCounter* d = registry.dcounter("concurrent.ms");
    Histogram* h = registry.histogram("concurrent.dist");
    for (int k = 0; k < kAddsPerTask; ++k) {
      c->Add();
      d->Add(0.5);
      h->Observe(static_cast<double>(k % 7) + 0.5);
      if (k % 256 == 0) {
        // Snapshots race with updates by design; per-metric totals must
        // still be plain atomic reads (no torn values, no TSan report).
        (void)registry.Snapshot();
      }
    }
  });
  MetricsSnapshot snap = registry.Snapshot();
  int64_t total = 0;
  for (int j = 0; j < 4; ++j) {
    total += snap.counter("concurrent." + std::to_string(j));
  }
  EXPECT_EQ(total, kTasks * kAddsPerTask);
  EXPECT_DOUBLE_EQ(snap.dcounter("concurrent.ms"),
                   0.5 * kTasks * kAddsPerTask);
  EXPECT_EQ(snap.histograms.at("concurrent.dist").count,
            kTasks * kAddsPerTask);
}

// ---------------------------------------------------------------------------
// QueryTrace

TEST(QueryTraceTest, SpanNestingInvariantsHold) {
  QueryTrace trace;
  TraceSpan root(&trace, "execute");
  int root_id = root.id();
  {
    TraceSpan child(&trace, "rewrite", root_id);
    EXPECT_NE(child.id(), root_id);
    TraceSpan grandchild(&trace, "normalize", child.id());
    grandchild.Event("shape", 3);
  }
  root.Close();

  std::vector<QueryTrace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  for (const QueryTrace::Span& s : spans) {
    EXPECT_GE(s.end_ms, s.start_ms) << s.name;
  }
  // Children open after and close before their parent.
  EXPECT_GE(spans[1].start_ms, spans[0].start_ms);
  EXPECT_LE(spans[1].end_ms, spans[0].end_ms);
  EXPECT_GE(spans[2].start_ms, spans[1].start_ms);
  EXPECT_LE(spans[2].end_ms, spans[1].end_ms);

  std::vector<QueryTrace::Event> events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span, spans[2].id);
  EXPECT_EQ(events[0].value, 3);
}

TEST(QueryTraceTest, EventRingDropsOldestAndCounts) {
  QueryTrace trace(16);  // capacity clamps at 16
  TraceSpan span(&trace, "s");
  for (int i = 0; i < 20; ++i) span.Event("e", i);
  span.Close();
  std::vector<QueryTrace::Event> events = trace.events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(trace.dropped_events(), 4);
  // Oldest-first order with the four oldest gone.
  EXPECT_EQ(events.front().value, 4);
  EXPECT_EQ(events.back().value, 19);
  EXPECT_EQ(trace.EventCount("e"), 16);
}

TEST(QueryTraceTest, SpanCapDropsAndCounts) {
  QueryTrace trace(16);
  std::vector<int> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(trace.BeginSpan("s"));
  for (int id : ids) trace.EndSpan(id);
  EXPECT_EQ(trace.spans().size(), 16u);
  EXPECT_EQ(trace.dropped_spans(), 4);
  EXPECT_EQ(ids.back(), -1);  // dropped spans report an invalid id
}

TEST(QueryTraceTest, TraceSpanAccumulatesDurationIntoDCounter) {
  MetricsRegistry registry;
  DCounter* acc = registry.dcounter("phase_ms");
  QueryTrace trace;
  {
    TraceSpan span(&trace, "phase", -1, acc);
  }
  // The metric and the span must agree — they are written from the same
  // measurement.
  EXPECT_DOUBLE_EQ(acc->value(), trace.SpanMs("phase"));
  // A null trace with a live DCounter still times (chunked executor uses
  // this as a bare RAII timer).
  double before = acc->value();
  { TraceSpan untraced(nullptr, "phase", -1, acc); }
  EXPECT_GE(acc->value(), before);
}

// ---------------------------------------------------------------------------
// Session-level profile schema and stats derivation

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    std::vector<int64_t> g;
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i < 50000; ++i) {
      g.push_back(static_cast<int64_t>(rng.NextBelow(32)));
      double xv = rng.NextDoubleIn(0.5, 9.5);
      x.push_back(xv);
      y.push_back(2.0 * xv);
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
    session_ = std::make_unique<SudafSession>(&catalog_);
  }

  Catalog catalog_;
  std::unique_ptr<SudafSession> session_;
};

// Structural golden check of the documented sudaf.profile.v1 schema: every
// key docs/observability.md promises must be present. (Timings vary run to
// run, so the gold is the key set, not the values.)
const char* const kProfileSchemaKeys[] = {
    "\"schema\": \"sudaf.profile.v1\"",
    "\"total_ms\":",
    "\"phases\":",
    "\"rewrite_ms\":",
    "\"probe_ms\":",
    "\"input_ms\":",
    "\"filter_ms\":",
    "\"gather_ms\":",
    "\"group_ms\":",
    "\"states_ms\":",
    "\"terminate_ms\":",
    "\"states\":",
    "\"requested\":",
    "\"from_cache\":",
    "\"computed\":",
    "\"poisoned\":",
    "\"cache\":",
    "\"hits\":",
    "\"misses\":",
    "\"poison_evictions\":",
    "\"epoch_invalidations\":",
    "\"stale_discards\":",
    "\"evictions\":",
    "\"bytes_evicted\":",
    "\"budget_rejects\":",
    "\"fused\":",
    "\"used\":",
    "\"morsels\":",
    "\"channels\":",
    "\"slots\":",
    "\"shared_slots\":",
    "\"threads_used\":",
    "\"terminate\": {\"slots\":",
    "\"trace\":",
};

TEST_F(ProfileTest, ProfileJsonMatchesDocumentedSchema) {
  auto result = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string json = result->ProfileJson();
  for (const char* key : kProfileSchemaKeys) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The trace section carries the phase spans (including the pipeline
  // sub-phases nested under "input") and the probe events.
  for (const char* span :
       {"\"execute\"", "\"rewrite\"", "\"probe\"", "\"input\"", "\"filter\"",
        "\"gather\"", "\"group\"", "\"states\"", "\"terminate\""}) {
    EXPECT_NE(json.find(span), std::string::npos) << "missing span " << span;
  }
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->EventCount("cache.miss"), result->stats.num_states);

  // Warm run: probe hits replace the misses.
  auto warm = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                ExecMode::kSudafShare);
  ASSERT_TRUE(warm.ok());
  ASSERT_NE(warm->trace, nullptr);
  EXPECT_EQ(warm->trace->EventCount("cache.hit"), warm->stats.num_states);
  EXPECT_EQ(warm->trace->EventCount("cache.miss"), 0);
}

TEST_F(ProfileTest, PhaseSpansSumCloseToTotal) {
  auto result = session_->Execute(
      "SELECT g, kurtosis(x), var(x) FROM t GROUP BY g",
      ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecStats& stats = result->stats;
  double phase_sum = stats.rewrite_ms + stats.probe_ms + stats.input_ms +
                     stats.states_ms + stats.terminate_ms;
  EXPECT_GT(stats.total_ms, 0.0);
  EXPECT_LE(phase_sum, stats.total_ms * 1.01);
  // On a 50k-row query the untimed residue (parse, snapshotting) is small:
  // the phases must account for at least 90% of the total.
  if (stats.total_ms > 1.0) {
    EXPECT_GE(phase_sum, stats.total_ms * 0.9)
        << "phases " << phase_sum << " vs total " << stats.total_ms;
  }
  // And the trace spans are the same measurement as the stats fields.
  ASSERT_NE(result->trace, nullptr);
  EXPECT_DOUBLE_EQ(result->trace->SpanMs("rewrite"), stats.rewrite_ms);
  EXPECT_DOUBLE_EQ(result->trace->SpanMs("states"), stats.states_ms);
}

TEST_F(ProfileTest, ExplainReturnsPlanWithoutExecuting) {
  auto result = session_->Execute("EXPLAIN SELECT g, qm(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT((*result)->num_rows(), 0);
  EXPECT_EQ((*result)->schema().field(0).name, "plan");
  std::string plan;
  for (int64_t r = 0; r < (*result)->num_rows(); ++r) {
    plan += (*result)->column(0).GetString(r);
    plan += '\n';
  }
  EXPECT_NE(plan.find("sum(x^2)"), std::string::npos);
  // Nothing executed: no states were requested and the cache stayed cold.
  EXPECT_EQ(result->stats.num_states, 0);
  EXPECT_EQ(session_->cache().num_entries(), 0);
}

TEST_F(ProfileTest, ExplainAnalyzeExecutesAndReturnsProfile) {
  auto result = session_->Execute(
      "EXPLAIN ANALYZE SELECT g, var(x) FROM t GROUP BY g",
      ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->schema().field(0).name, "profile");
  std::string text;
  for (int64_t r = 0; r < (*result)->num_rows(); ++r) {
    text += (*result)->column(0).GetString(r);
    text += '\n';
  }
  for (const char* phase :
       {"rewrite", "probe", "input", "states", "terminate"}) {
    EXPECT_NE(text.find(phase), std::string::npos) << "missing " << phase;
  }
  // It really executed: stats are the analyzed query's and the cache is
  // warm now.
  EXPECT_EQ(result->stats.num_states, 3);
  EXPECT_GT(session_->cache().num_entries(), 0);
}

// var's terminate program is s1, s2, s3, s3/s2, s1/s2, its square and
// the difference: 7 slots, of which s2 is reused (the square multiplies
// one s1/s2 slot by itself). The counts reach ExecStats and the EXPLAIN
// ANALYZE terminate line.
TEST_F(ProfileTest, TerminateSlotsReachStatsAndExplainAnalyze) {
  auto result = session_->Execute(
      "EXPLAIN ANALYZE SELECT g, var(x) FROM t GROUP BY g",
      ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.terminate_slots, 7);
  EXPECT_EQ(result->stats.terminate_shared_slots, 1);
  std::string terminate_line;
  for (int64_t r = 0; r < (*result)->num_rows(); ++r) {
    const std::string line = (*result)->column(0).GetString(r);
    if (line.find("terminate") != std::string::npos) terminate_line = line;
  }
  EXPECT_NE(terminate_line.find("slots×1 (sum 7)"), std::string::npos)
      << terminate_line;
  EXPECT_NE(terminate_line.find("shared_slots×1 "), std::string::npos)
      << terminate_line;
  auto engine = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                  ExecMode::kEngine);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->stats.terminate_slots, 0);
}

TEST_F(ProfileTest, StatsArePerResultNeverStale) {
  auto first = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->stats.num_states, 0);
  // Regression (historical): a parse-time failure used to leave the
  // previous query's stats readable through a session-level accessor.
  // Stats now live only on each QueryResult, so a failed query yields no
  // stats at all and cannot alias an earlier query's numbers.
  ASSERT_FALSE(session_->Execute("not sql at all", ExecMode::kSudafShare).ok());
  // The earlier result's stats are untouched by the failure.
  EXPECT_GT(first->stats.num_states, 0);
  // And a fresh successful query reports its own numbers independently.
  auto again = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.num_states, first->stats.num_states);
  EXPECT_GT(again->stats.states_from_cache, 0);
  EXPECT_EQ(first->stats.states_from_cache, 0);
}

TEST_F(ProfileTest, ExecStatsIsTheRegistryDelta) {
  MetricsSnapshot before = session_->metrics().Snapshot();
  auto result = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok());
  MetricsSnapshot delta = session_->metrics().Snapshot().Delta(before);
  const ExecStats& stats = result->stats;
  EXPECT_EQ(stats.num_states, delta.counter("sudaf.states.requested"));
  EXPECT_EQ(stats.states_computed, delta.counter("sudaf.states.computed"));
  EXPECT_EQ(stats.states_from_cache, delta.counter("sudaf.states.from_cache"));
  EXPECT_EQ(stats.used_fused, delta.counter("sudaf.fused.passes") > 0);
  EXPECT_EQ(stats.scanned_base_data, delta.counter("sudaf.input.scans") > 0);
  EXPECT_EQ(stats.serve_rows, delta.counter("sudaf.serve.rows"));
  EXPECT_GT(stats.serve_rows, 0);
  EXPECT_DOUBLE_EQ(stats.total_ms, delta.dcounter("sudaf.query.total_ms"));
  EXPECT_EQ(delta.counter("sudaf.query.count"), 1);
  EXPECT_EQ(delta.counter("sudaf.query.errors"), 0);
  // The registry is cumulative across queries; a second query doubles the
  // query count but the derived stats stay per-query.
  ASSERT_TRUE(session_
                  ->Execute("SELECT g, var(x) FROM t GROUP BY g",
                            ExecMode::kSudafShare)
                  .ok());
  EXPECT_EQ(session_->metrics().Snapshot().counter("sudaf.query.count"), 2);
}

TEST_F(ProfileTest, TracingCanBeDisabled) {
  SudafSession quiet(&catalog_, SessionOptions{}.set_collect_traces(false));
  auto result =
      quiet.Execute("SELECT g, var(x) FROM t GROUP BY g",
                    ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace, nullptr);
  // The profile JSON still validates — trace is null, cache hit/miss fall
  // back to the stats counters.
  std::string json = result->ProfileJson();
  EXPECT_NE(json.find("\"schema\": \"sudaf.profile.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\": null"), std::string::npos);
  EXPECT_EQ(result->stats.num_states, 3);
}

}  // namespace
}  // namespace sudaf
