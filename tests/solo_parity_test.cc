// Solo-execution parity: pins what one kSudafNoShare / kSudafShare query
// reports in each cache situation — cold, warm hit, partial hit, delta
// refresh, no-share, join, poisoned state and guarded runs — through its
// ExecStats work counters, its trace span tree and its guard traffic, and
// checks that a one-item ExecuteBatch is indistinguishable from Execute.
// A change to how a solo query is planned, scanned, computed or served
// must keep every line here.

#include <string>
#include <vector>

#include "common/query_guard.h"
#include "gtest/gtest.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// The solo work counters, one line per query.
std::string StatsLine(const ExecStats& s) {
  return "computed=" + std::to_string(s.states_computed) +
         " cache=" + std::to_string(s.states_from_cache) +
         " scanned=" + std::to_string(s.scanned_base_data ? 1 : 0) +
         " serve=" + std::to_string(s.serve_rows) +
         " gathered=" + std::to_string(s.gathered_bytes) +
         " delta=" + std::to_string(s.cache_delta_refreshes) +
         " poisoned=" + std::to_string(s.states_poisoned) +
         " batch=" + std::to_string(s.batch_size);
}

// Every span as its path from the root, in opening order.
std::string SpanTree(const QueryTrace& trace) {
  const std::vector<QueryTrace::Span> spans = trace.spans();
  auto find = [&spans](int id) -> const QueryTrace::Span* {
    for (const QueryTrace::Span& s : spans) {
      if (s.id == id) return &s;
    }
    return nullptr;
  };
  std::string out;
  for (const QueryTrace::Span& s : spans) {
    std::string path = s.name;
    for (const QueryTrace::Span* p = find(s.parent); p != nullptr;
         p = find(p->parent)) {
      path = p->name + "/" + path;
    }
    out += (out.empty() ? "" : ",") + path;
  }
  return out;
}

std::string Fingerprint(const Table& t) {
  std::string fp;
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (t.column(c).type() == DataType::kInt64) {
        int64_t v = t.column(c).GetInt64(r);
        fp.append(reinterpret_cast<const char*>(&v), sizeof(v));
      } else {
        double v = t.column(c).GetFloat64(r);
        fp.append(reinterpret_cast<const char*>(&v), sizeof(v));
      }
    }
  }
  return fp;
}

constexpr char kCold[] =
    "SELECT g, kurtosis(x), var(x) FROM t WHERE x > 1.0 GROUP BY g";
constexpr char kHit[] =
    "SELECT g, skewness(x) FROM t WHERE x > 1.0 GROUP BY g ORDER BY g "
    "LIMIT 3";
constexpr char kPartial[] =
    "SELECT g, var(y) FROM t WHERE x > 1.0 GROUP BY g";
constexpr char kJoin[] =
    "SELECT g, sum(x * w) FROM t, d WHERE g = k GROUP BY g";

constexpr char kColdSpans[] =
    "execute,execute/rewrite,execute/probe,execute/input,"
    "execute/input/filter,execute/input/gather,execute/input/group,"
    "execute/states,execute/states/fused_pass,execute/terminate";

class SoloParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<int64_t> g(kRows);
    std::vector<double> x(kRows);
    std::vector<double> y(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      g[i] = i % 8;
      x[i] = static_cast<double>(i % 100) + 0.5;
      y[i] = static_cast<double>((i * 7) % 13) - 6.0;
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
    Schema schema;
    ASSERT_OK(schema.AddField({"k", DataType::kInt64}));
    ASSERT_OK(schema.AddField({"w", DataType::kFloat64}));
    auto d = std::make_unique<Table>(std::move(schema));
    for (int64_t k = 0; k < 8; ++k) {
      d->AppendRow({Value(k), Value(static_cast<double>(k) + 0.25)});
    }
    d->FinishBulkAppend();
    catalog_.PutTable("d", std::move(d));
  }

  // Serial, small morsels: the guard is consulted at many boundaries, so
  // its check count pins where the guard goes.
  static ExecOptions Exec(const QueryGuard* guard = nullptr) {
    ExecOptions exec;
    exec.morsel_size = 64;
    exec.guard = guard;
    return exec;
  }

  std::unique_ptr<SudafSession> NewSession() {
    return std::make_unique<SudafSession>(&catalog_,
                                          SessionOptions{}.set_exec(Exec()));
  }

  static constexpr int64_t kRows = 1000;
  Catalog catalog_;
};

TEST_F(SoloParityTest, ShareSequencePinsStatsAndSpans) {
  auto session = NewSession();

  ASSERT_OK_AND_ASSIGN(QueryResult cold,
                       session->Execute(kCold, ExecMode::kSudafShare));
  EXPECT_EQ(StatsLine(cold.stats),
            "computed=5 cache=0 scanned=1 serve=40 gathered=0 delta=0 "
            "poisoned=0 batch=0");
  EXPECT_EQ(SpanTree(*cold.trace), kColdSpans);

  ASSERT_OK_AND_ASSIGN(QueryResult hit,
                       session->Execute(kHit, ExecMode::kSudafShare));
  EXPECT_EQ(StatsLine(hit.stats),
            "computed=0 cache=4 scanned=0 serve=12 gathered=0 delta=0 "
            "poisoned=0 batch=0");
  EXPECT_EQ(SpanTree(*hit.trace),
            "execute,execute/rewrite,execute/probe,execute/states,"
            "execute/terminate");

  ASSERT_OK_AND_ASSIGN(QueryResult partial,
                       session->Execute(kPartial, ExecMode::kSudafShare));
  EXPECT_EQ(StatsLine(partial.stats),
            "computed=2 cache=1 scanned=1 serve=24 gathered=0 delta=0 "
            "poisoned=0 batch=0");
  EXPECT_EQ(SpanTree(*partial.trace), kColdSpans);

  ASSERT_OK(catalog_.AppendRows(
      "t", *testing_util::MakeXyTable({3, 9, 9}, {7.5, 8.5, 0.5},
                                      {1.0, 2.0, 3.0})));
  ASSERT_OK_AND_ASSIGN(QueryResult refreshed,
                       session->Execute(kCold, ExecMode::kSudafShare));
  EXPECT_EQ(StatsLine(refreshed.stats),
            "computed=0 cache=5 scanned=0 serve=45 gathered=0 delta=1 "
            "poisoned=0 batch=0");
  EXPECT_EQ(SpanTree(*refreshed.trace),
            "execute,execute/rewrite,execute/probe,execute/refresh,"
            "execute/refresh/filter,execute/refresh/gather,"
            "execute/refresh/group,execute/refresh/fused_pass,"
            "execute/states,execute/terminate");

  // The refreshed answer is the cold answer over the appended table.
  auto fresh = NewSession();
  ASSERT_OK_AND_ASSIGN(QueryResult recomputed,
                       fresh->Execute(kCold, ExecMode::kSudafShare));
  EXPECT_EQ(Fingerprint(*refreshed), Fingerprint(*recomputed));
}

TEST_F(SoloParityTest, NoShareJoinAndPoisonPinStatsAndSpans) {
  auto session = NewSession();
  ASSERT_OK_AND_ASSIGN(QueryResult noshare,
                       session->Execute(kCold, ExecMode::kSudafNoShare));
  EXPECT_EQ(StatsLine(noshare.stats),
            "computed=5 cache=0 scanned=1 serve=40 gathered=0 delta=0 "
            "poisoned=0 batch=0");
  EXPECT_EQ(SpanTree(*noshare.trace), kColdSpans);
  EXPECT_EQ(session->cache().num_entries(), 0);

  ASSERT_OK_AND_ASSIGN(QueryResult join,
                       session->Execute(kJoin, ExecMode::kSudafShare));
  EXPECT_EQ(StatsLine(join.stats),
            "computed=1 cache=0 scanned=1 serve=8 gathered=24000 delta=0 "
            "poisoned=0 batch=0");
  EXPECT_EQ(SpanTree(*join.trace), kColdSpans);

  catalog_.PutTable("p", testing_util::MakeXyTable({0, 0, 1},
                                                   {1e308, 1e308, 2.0},
                                                   {0.0, 0.0, 0.0}));
  ASSERT_OK_AND_ASSIGN(
      QueryResult poisoned,
      session->Execute("SELECT g, sum(x), count(x) FROM p GROUP BY g",
                       ExecMode::kSudafShare));
  EXPECT_EQ(StatsLine(poisoned.stats),
            "computed=2 cache=0 scanned=1 serve=4 gathered=0 delta=0 "
            "poisoned=1 batch=0");
  EXPECT_EQ(SpanTree(*poisoned.trace), kColdSpans);
}

// The guard is consulted by the scan and at every morsel of the fused
// pass; a tripped guard fails the query before the scan (cancelled) or
// right after it (the input exceeds the memory budget).
TEST_F(SoloParityTest, GuardedRunsPinChecksAndTrips) {
  for (ExecMode mode : {ExecMode::kSudafShare, ExecMode::kSudafNoShare}) {
    auto session = NewSession();
    QueryGuard guard;
    ASSERT_OK_AND_ASSIGN(QueryResult guarded,
                         session->Execute(kCold, mode, Exec(&guard)));
    EXPECT_EQ(guard.checks(), 34);
    EXPECT_EQ(guard.trips(), 0);
    EXPECT_EQ(StatsLine(guarded.stats),
              "computed=5 cache=0 scanned=1 serve=40 gathered=0 delta=0 "
              "poisoned=0 batch=0");

    CancelToken token;
    token.Cancel();
    QueryGuard cancelled;
    cancelled.set_cancel_token(&token);
    const MetricsSnapshot before = session->metrics().Snapshot();
    const int64_t entries = session->cache().num_entries();
    Result<QueryResult> r = session->Execute(kPartial, mode, Exec(&cancelled));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(cancelled.checks(), 1);
    EXPECT_EQ(cancelled.trips(), 1);
    MetricsSnapshot delta = session->metrics().Snapshot().Delta(before);
    EXPECT_EQ(delta.counter("sudaf.input.scans"), 0);
    EXPECT_EQ(delta.counter("sudaf.guard.trips"), 1);
    EXPECT_EQ(delta.counter("sudaf.query.errors"), 1);
    EXPECT_EQ(session->cache().num_entries(), entries);

    QueryGuard tight;
    tight.set_memory_budget(64);
    const MetricsSnapshot before_tight = session->metrics().Snapshot();
    r = session->Execute(kPartial, mode, Exec(&tight));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    delta = session->metrics().Snapshot().Delta(before_tight);
    EXPECT_EQ(delta.counter("sudaf.input.scans"), 1);
    EXPECT_EQ(delta.counter("sudaf.query.errors"), 1);
    EXPECT_EQ(session->cache().num_entries(), entries);
  }
}

// A one-item batch is a solo query: same answer, same stats, same spans,
// and nothing counted as batched.
TEST_F(SoloParityTest, OneItemBatchMatchesExecute) {
  for (ExecMode mode : {ExecMode::kSudafShare, ExecMode::kSudafNoShare}) {
    for (const char* sql : {kCold, kJoin}) {
      auto solo_session = NewSession();
      auto batch_session = NewSession();
      for (int round = 0; round < 2; ++round) {  // cold, then warm
        ASSERT_OK_AND_ASSIGN(QueryResult solo,
                             solo_session->Execute(sql, mode));
        BatchExecStats bstats;
        std::vector<Result<QueryResult>> batch =
            batch_session->ExecuteBatch({std::string(sql)}, mode, &bstats);
        ASSERT_EQ(batch.size(), 1u);
        ASSERT_TRUE(batch[0].ok()) << batch[0].status().ToString();
        EXPECT_EQ(Fingerprint(*batch[0]->table), Fingerprint(*solo.table))
            << sql;
        EXPECT_EQ(StatsLine(batch[0]->stats), StatsLine(solo.stats)) << sql;
        EXPECT_EQ(SpanTree(*batch[0]->trace), SpanTree(*solo.trace)) << sql;
        EXPECT_EQ(batch[0]->stats.batch_size, 0);
        EXPECT_EQ(batch[0]->stats.states_from_batch, 0);
        EXPECT_EQ(bstats.queries, 1);
        EXPECT_EQ(bstats.queries_solo, 1);
        EXPECT_EQ(bstats.queries_coalesced, 0);
        EXPECT_EQ(bstats.groups_shared, 0);
        EXPECT_EQ(bstats.states_requested, 0);
        EXPECT_EQ(bstats.scan_passes, 0);
      }
    }
  }
}

}  // namespace
}  // namespace sudaf
