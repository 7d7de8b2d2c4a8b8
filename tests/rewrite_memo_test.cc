// The session's rewrite memo (docs/execution.md, "Rewrite memo") and the
// exact number formatting its key and the cache keys rely on.
//
// A memo hit must be indistinguishable from a cold rewrite: the same
// answer bits, the same work counters and the same span tree, on every
// rewritten path (solo, batch, chunked, view). The memo must never serve
// a plan across a library change, must keep statements whose constants
// differ past the 6th digit apart, and must stay correct across eviction
// and under concurrent callers.

#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sudaf/chunked.h"
#include "sudaf/session.h"
#include "sudaf/view_rewrite.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// Every cell's bytes, column-major (numeric cells only).
std::string Bytes(const Table& t) {
  std::string out;
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (t.column(c).type() == DataType::kInt64) {
        const int64_t v = t.column(c).GetInt64(r);
        out.append(reinterpret_cast<const char*>(&v), sizeof(v));
      } else if (t.column(c).type() == DataType::kFloat64) {
        const double v = t.column(c).GetFloat64(r);
        out.append(reinterpret_cast<const char*>(&v), sizeof(v));
      }
    }
  }
  return out;
}

bool SameBytes(const Table& a, const Table& b) {
  const std::string x = Bytes(a);
  const std::string y = Bytes(b);
  return a.num_rows() == b.num_rows() && x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size()) == 0;
}

// Every ExecStats work counter except the memo's own.
std::string StatsLine(const ExecStats& s) {
  return "states=" + std::to_string(s.num_states) +
         " cache=" + std::to_string(s.states_from_cache) +
         " computed=" + std::to_string(s.states_computed) +
         " scanned=" + std::to_string(s.scanned_base_data) +
         " serve=" + std::to_string(s.serve_rows) +
         " gathered=" + std::to_string(s.gathered_bytes) +
         " fused=" + std::to_string(s.used_fused) +
         " morsels=" + std::to_string(s.morsels) +
         " channels=" + std::to_string(s.fused_channels) +
         " slots=" + std::to_string(s.fused_slots) +
         " shared_slots=" + std::to_string(s.fused_shared_slots) +
         " threads=" + std::to_string(s.fused_threads) +
         " terminate_slots=" + std::to_string(s.terminate_slots) +
         " terminate_shared=" + std::to_string(s.terminate_shared_slots) +
         " poisoned=" + std::to_string(s.states_poisoned) +
         " poison_evictions=" + std::to_string(s.cache_poison_evictions) +
         " epoch=" + std::to_string(s.cache_epoch_invalidations) +
         " stale=" + std::to_string(s.cache_stale_discards) +
         " delta=" + std::to_string(s.cache_delta_refreshes) +
         " full=" + std::to_string(s.cache_full_invalidations) +
         " evictions=" + std::to_string(s.cache_evictions) +
         " rejects=" + std::to_string(s.cache_budget_rejects) +
         " batch=" + std::to_string(s.batch_size) +
         " from_batch=" + std::to_string(s.states_from_batch);
}

// Every span as its path from the root, in opening order.
std::string SpanTree(const QueryTrace& trace) {
  const std::vector<QueryTrace::Span> spans = trace.spans();
  std::string out;
  for (const QueryTrace::Span& s : spans) {
    std::string path = s.name;
    for (int p = s.parent; p >= 0; p = spans[p].parent) {
      path = spans[p].name + "/" + path;
    }
    out += (out.empty() ? "" : ",") + path;
  }
  return out;
}

class RewriteMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<int64_t> g;
    std::vector<double> x;
    std::vector<double> y;
    for (int64_t i = 0; i < kRows; ++i) {
      g.push_back(i % 8);
      x.push_back(static_cast<double>(i % 97) * 0.37 + 0.5);
      y.push_back(static_cast<double>((i * 13) % 29) - 14.0);
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
  }

  std::unique_ptr<SudafSession> NewSession() {
    return std::make_unique<SudafSession>(&catalog_);
  }

  static QueryResult Run(SudafSession* session, const std::string& sql,
                         ExecMode mode = ExecMode::kSudafShare) {
    Result<QueryResult> r = session->Execute(sql, mode);
    SUDAF_CHECK_MSG(r.ok(), sql + ": " + r.status().ToString());
    return std::move(*r);
  }

  static constexpr int64_t kRows = 2000;
  Catalog catalog_;
};

// The shapes the parity tests run: grouped, ungrouped, ordered and cut,
// aliased, an inline expression, a native UDAF.
const std::vector<std::string> kShapes = {
    "SELECT g, kurtosis(x), var(y) FROM t WHERE x > %c GROUP BY g",
    "SELECT skewness(x) AS s, qm(y) FROM t WHERE x > %c",
    "SELECT g, avg(x) FROM t WHERE x > %c GROUP BY g ORDER BY g LIMIT 3",
    "SELECT g, sum(x^2)/sum(x) AS ch, gm(x) FROM t WHERE x > %c GROUP BY g",
    "SELECT g, approx_median(x) FROM t WHERE x > %c GROUP BY g",
};

std::string WithConstant(const std::string& shape, const std::string& c) {
  std::string sql = shape;
  sql.replace(sql.find("%c"), 2, c);
  return sql;
}

Status DefineMedian(SudafSession* session) {
  NativeUdaf udaf;
  udaf.name = "approx_median";
  udaf.state_templates = {"count()", "sum(x)", "sum(x^2)"};
  udaf.terminate = [](const std::vector<double>& s) -> Result<double> {
    return s[1] / s[0] + 0.01 * (s[2] / s[0]);
  };
  return session->library().DefineNative(std::move(udaf));
}

// Solo queries in both rewritten modes: a session whose memo holds the
// shape (from another WHERE constant, so the cache holds nothing for this
// statement) answers and reports exactly like a fresh session.
TEST_F(RewriteMemoTest, HitMatchesColdRewriteSolo) {
  for (ExecMode mode : {ExecMode::kSudafShare, ExecMode::kSudafNoShare}) {
    auto warm = NewSession();
    auto cold = NewSession();
    ASSERT_OK(DefineMedian(warm.get()));
    ASSERT_OK(DefineMedian(cold.get()));
    for (const std::string& shape : kShapes) {
      Run(warm.get(), WithConstant(shape, "9.5"), mode);
    }
    for (const std::string& shape : kShapes) {
      const std::string sql = WithConstant(shape, "1.25");
      QueryResult hit = Run(warm.get(), sql, mode);
      QueryResult miss = Run(cold.get(), sql, mode);
      EXPECT_TRUE(SameBytes(*hit.table, *miss.table)) << sql;
      EXPECT_EQ(StatsLine(hit.stats), StatsLine(miss.stats)) << sql;
      EXPECT_EQ(SpanTree(*hit.trace), SpanTree(*miss.trace)) << sql;
      EXPECT_EQ(hit.stats.rewrite_memo_hits, 1) << sql;
      EXPECT_EQ(hit.stats.rewrite_memo_misses, 0) << sql;
      EXPECT_EQ(miss.stats.rewrite_memo_hits, 0) << sql;
      EXPECT_EQ(miss.stats.rewrite_memo_misses, 1) << sql;
    }
  }
}

TEST_F(RewriteMemoTest, HitMatchesColdRewriteInABatch) {
  for (ExecMode mode : {ExecMode::kSudafShare, ExecMode::kSudafNoShare}) {
    auto warm = NewSession();
    auto cold = NewSession();
    ASSERT_OK(DefineMedian(warm.get()));
    ASSERT_OK(DefineMedian(cold.get()));
    auto batch = [&](const std::string& c) {
      std::vector<std::string> sqls;
      for (size_t i = 0; i < kShapes.size(); ++i) {
        // Shapes 0, 2, 3, 4 share a data signature; 1 is ungrouped.
        sqls.push_back(WithConstant(kShapes[i], c));
      }
      return sqls;
    };
    warm->ExecuteBatch(batch("9.5"), mode);
    std::vector<Result<QueryResult>> hit = warm->ExecuteBatch(batch("2"), mode);
    std::vector<Result<QueryResult>> miss =
        cold->ExecuteBatch(batch("2"), mode);
    ASSERT_EQ(hit.size(), miss.size());
    for (size_t i = 0; i < hit.size(); ++i) {
      ASSERT_TRUE(hit[i].ok()) << hit[i].status().ToString();
      ASSERT_TRUE(miss[i].ok()) << miss[i].status().ToString();
      EXPECT_TRUE(SameBytes(*hit[i]->table, *miss[i]->table)) << i;
      EXPECT_EQ(StatsLine(hit[i]->stats), StatsLine(miss[i]->stats)) << i;
      EXPECT_EQ(SpanTree(*hit[i]->trace), SpanTree(*miss[i]->trace)) << i;
      EXPECT_EQ(hit[i]->stats.rewrite_memo_hits, 1) << i;
      EXPECT_EQ(miss[i]->stats.rewrite_memo_misses, 1) << i;
    }
  }
}

TEST_F(RewriteMemoTest, HitMatchesColdRewriteChunked) {
  const std::string sql =
      "SELECT kurtosis(x), var(y) FROM t WHERE g >= 2 and g < 6";
  auto warm = NewSession();
  auto cold = NewSession();
  Run(warm.get(), "SELECT kurtosis(x), var(y) FROM t WHERE x > 3.0");
  ChunkedSharingSession warm_chunked(warm.get(), "t", "g", 2);
  ChunkedSharingSession cold_chunked(cold.get(), "t", "g", 2);
  const int64_t hits0 =
      warm->metrics().Snapshot().counter("sudaf.rewrite.memo_hits");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> hit, warm_chunked.Execute(sql));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> miss,
                       cold_chunked.Execute(sql));
  EXPECT_TRUE(SameBytes(*hit, *miss));
  EXPECT_EQ(warm_chunked.last_stats().chunks_computed,
            cold_chunked.last_stats().chunks_computed);
  EXPECT_EQ(warm->metrics().Snapshot().counter("sudaf.rewrite.memo_hits"),
            hits0 + 1);
  EXPECT_EQ(cold->metrics().Snapshot().counter("sudaf.rewrite.memo_misses"),
            1);
}

TEST_F(RewriteMemoTest, HitMatchesColdRewriteThroughAView) {
  const std::string view_sql =
      "SELECT g, count(), sum(x), sum(x^2), sum(x^3), sum(x^4) FROM t "
      "GROUP BY g";
  const std::string query = "SELECT kurtosis(x), var(x) FROM t";
  auto warm = NewSession();
  auto cold = NewSession();
  Run(warm.get(),
      "SELECT g, count(), sum(x), sum(x^2), sum(x^3), sum(x^4) FROM t "
      "WHERE x > 3.0 GROUP BY g");
  Run(warm.get(), "SELECT kurtosis(x), var(x) FROM t WHERE x > 3.0");
  const size_t entries = warm->rewrite_memo().entries();
  ASSERT_OK_AND_ASSIGN(AggregateView hit_view,
                       MaterializeAggregateView(warm.get(), "v", view_sql));
  ASSERT_OK_AND_ASSIGN(AggregateView miss_view,
                       MaterializeAggregateView(cold.get(), "v", view_sql));
  EXPECT_TRUE(SameBytes(*hit_view.data, *miss_view.data));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> hit,
                       ExecuteWithView(warm.get(), hit_view, query));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> miss,
                       ExecuteWithView(cold.get(), miss_view, query));
  EXPECT_TRUE(SameBytes(*hit, *miss));
  // Both view rewrites were served from the warm session's memo.
  EXPECT_EQ(warm->rewrite_memo().entries(), entries);
  EXPECT_EQ(cold->rewrite_memo().entries(), 2u);
}

TEST_F(RewriteMemoTest, RedefiningAUdafInvalidates) {
  auto session = NewSession();
  ASSERT_OK(session->library().Define("f", {"x"}, "sum(x)"));
  const std::string sql = "SELECT g, f(x) FROM t GROUP BY g";
  QueryResult before = Run(session.get(), sql);
  EXPECT_TRUE(SameBytes(*before.table,
                        *Run(session.get(),
                             "SELECT g, sum(x) FROM t GROUP BY g")
                             .table));
  ASSERT_OK(session->library().Define("f", {"x"}, "sum(x^2)"));
  QueryResult after = Run(session.get(), sql);
  EXPECT_EQ(after.stats.rewrite_memo_misses, 1);
  EXPECT_TRUE(SameBytes(*after.table,
                        *Run(session.get(),
                             "SELECT g, sum(x^2) FROM t GROUP BY g")
                             .table));
}

TEST_F(RewriteMemoTest, RedefiningANativeUdafInvalidates) {
  auto session = NewSession();
  auto define = [&](std::vector<std::string> states, bool mean) {
    NativeUdaf udaf;
    udaf.name = "nat";
    udaf.state_templates = std::move(states);
    udaf.terminate = [mean](const std::vector<double>& s) -> Result<double> {
      return mean ? s[0] / s[1] : (s[0] + s[1]) / 2.0;
    };
    return session->library().DefineNative(std::move(udaf));
  };
  ASSERT_OK(define({"min(x)", "max(x)"}, false));
  const std::string sql = "SELECT g, nat(x) FROM t GROUP BY g";
  Run(session.get(), sql);
  EXPECT_EQ(Run(session.get(), sql).stats.rewrite_memo_hits, 1);
  ASSERT_OK(define({"sum(x)", "count()"}, true));
  QueryResult after = Run(session.get(), sql);
  EXPECT_EQ(after.stats.rewrite_memo_misses, 1);
  EXPECT_TRUE(SameBytes(
      *after.table, *Run(session.get(), "SELECT g, sum(x)/count() FROM t "
                                        "GROUP BY g")
                         .table));
}

TEST_F(RewriteMemoTest, AssigningALibraryInvalidates) {
  auto session = NewSession();
  const std::string sql = "SELECT g, avg(x) FROM t GROUP BY g";
  ASSERT_OK(session->library().Define("avg", {"x"}, "sum(x^2)/count()"));
  QueryResult squared = Run(session.get(), sql);
  session->library() = UdafLibrary::Standard();
  QueryResult standard = Run(session.get(), sql);
  EXPECT_EQ(standard.stats.rewrite_memo_misses, 1);
  EXPECT_TRUE(SameBytes(
      *standard.table,
      *Run(session.get(), "SELECT g, sum(x)/count() FROM t GROUP BY g")
           .table));
  EXPECT_FALSE(SameBytes(*standard.table, *squared.table));
  // Moving the library out, by construction or by assignment, leaves the
  // session an empty one, whose stamp no memoized plan carries.
  UdafLibrary moved(std::move(session->library()));
  EXPECT_FALSE(session->Execute(sql, ExecMode::kSudafShare).ok());
  session->library() = std::move(moved);
  EXPECT_EQ(Run(session.get(), sql).stats.rewrite_memo_hits, 1);
  UdafLibrary assigned;
  assigned = std::move(session->library());
  EXPECT_FALSE(session->Execute(sql, ExecMode::kSudafShare).ok());
}

// Reordering the GROUP BY moves the group-key columns the plan copies.
TEST(RewriteMemoKeyTest, GroupByOrderIsPartOfTheKey) {
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"b", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"x", DataType::kFloat64}));
  auto table = std::make_unique<Table>(std::move(schema));
  for (int64_t i = 0; i < 12; ++i) {
    table->AppendRow({Value(i % 3), Value(10 + i % 2),
                      Value(static_cast<double>(i))});
  }
  table->FinishBulkAppend();
  Catalog catalog;
  catalog.PutTable("u", std::move(table));
  SudafSession session(&catalog);
  SudafSession fresh(&catalog);
  const std::string ab = "SELECT a, b, sum(x) FROM u GROUP BY a, b";
  const std::string ba = "SELECT a, b, sum(x) FROM u GROUP BY b, a";
  ASSERT_TRUE(session.Execute(ab, ExecMode::kSudafShare).ok());
  ASSERT_OK_AND_ASSIGN(QueryResult memo,
                       session.Execute(ba, ExecMode::kSudafShare));
  ASSERT_OK_AND_ASSIGN(QueryResult cold,
                       fresh.Execute(ba, ExecMode::kSudafShare));
  EXPECT_EQ(memo.stats.rewrite_memo_misses, 1);
  EXPECT_TRUE(SameBytes(*memo.table, *cold.table));
}

// Select-list constants that print alike to 6 digits are separate shapes.
TEST_F(RewriteMemoTest, LiteralsBeyondSixDigitsGetSeparateEntries) {
  auto session = NewSession();
  const std::string a = "SELECT g, sum(x) * 1.0000001 FROM t GROUP BY g";
  const std::string b = "SELECT g, sum(x) * 1.0000002 FROM t GROUP BY g";
  Run(session.get(), a);
  QueryResult second = Run(session.get(), b);
  EXPECT_EQ(second.stats.rewrite_memo_misses, 1);
  EXPECT_EQ(session->rewrite_memo().entries(), 2u);
  auto fresh = NewSession();
  EXPECT_TRUE(SameBytes(*second.table, *Run(fresh.get(), b).table));
}

// The alias and the GROUP BY list are part of the shape.
TEST_F(RewriteMemoTest, AliasAndGroupByArePartOfTheKey) {
  auto session = NewSession();
  QueryResult a = Run(session.get(), "SELECT g, avg(x) AS a FROM t GROUP BY g");
  QueryResult b = Run(session.get(), "SELECT g, avg(x) AS b FROM t GROUP BY g");
  EXPECT_EQ(b.stats.rewrite_memo_misses, 1);
  EXPECT_EQ(a.table->schema().field(1).name, "a");
  EXPECT_EQ(b.table->schema().field(1).name, "b");
  // Without the GROUP BY the same select list does not rewrite at all.
  EXPECT_FALSE(
      session->Execute("SELECT g, avg(x) AS a FROM t", ExecMode::kSudafShare)
          .ok());
  EXPECT_EQ(session->rewrite_memo().entries(), 2u);
}

TEST_F(RewriteMemoTest, EvictionAtCapacityKeepsAnswersCorrect) {
  auto session = NewSession();
  auto sql = [](size_t i) {
    return "SELECT g, var(x) + " + std::to_string(i) + " FROM t GROUP BY g";
  };
  const size_t n = RewriteMemo::kCapacity + 16;
  for (size_t i = 0; i < n; ++i) Run(session.get(), sql(i));
  EXPECT_EQ(session->rewrite_memo().entries(), RewriteMemo::kCapacity);
  EXPECT_GT(session->rewrite_memo().ApproxBytes(), 0);
  auto fresh = NewSession();
  // The oldest shapes were evicted and rewrite again; the newest hit.
  for (size_t i : {size_t{0}, size_t{15}, n - 1}) {
    QueryResult r = Run(session.get(), sql(i));
    EXPECT_EQ(r.stats.rewrite_memo_hits, i == n - 1 ? 1 : 0) << i;
    EXPECT_TRUE(SameBytes(*r.table, *Run(fresh.get(), sql(i)).table)) << i;
  }
  EXPECT_EQ(session->rewrite_memo().entries(), RewriteMemo::kCapacity);
}

// EXPLAIN ANALYZE's rewrite line and the profile JSON carry the outcome.
TEST_F(RewriteMemoTest, ProfileReportsHitOrMiss) {
  auto session = NewSession();
  const std::string sql = "SELECT g, kurtosis(x) FROM t GROUP BY g";
  QueryResult miss = Run(session.get(), "EXPLAIN ANALYZE " + sql);
  QueryResult hit = Run(session.get(), "EXPLAIN ANALYZE " + sql);
  EXPECT_NE(miss.ProfileText().find("memo.miss"), std::string::npos);
  EXPECT_NE(hit.ProfileText().find("memo.hit"), std::string::npos);
  EXPECT_NE(hit.ProfileJson().find("\"memo_hits\": 1"), std::string::npos);
  EXPECT_NE(miss.ProfileJson().find("\"memo_misses\": 1"), std::string::npos);
  QueryResult untraced = std::move(hit);
  untraced.trace = nullptr;
  EXPECT_NE(untraced.ProfileText().find("memo hit"), std::string::npos);
}

// Eight threads share one session, its memo and its cache.
TEST_F(RewriteMemoTest, ConcurrentExecuteGivesCorrectAnswers) {
  const std::vector<std::string> constants = {"1.5", "4", "7.25"};
  std::vector<std::string> sqls;
  for (const std::string& shape : kShapes) {
    for (const std::string& c : constants) {
      sqls.push_back(WithConstant(shape, c));
    }
  }
  std::vector<std::string> expected;
  {
    auto serial = NewSession();
    ASSERT_OK(DefineMedian(serial.get()));
    for (const std::string& sql : sqls) {
      expected.push_back(Bytes(*Run(serial.get(), sql).table));
    }
  }
  auto shared = NewSession();
  ASSERT_OK(DefineMedian(shared.get()));
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < sqls.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t) * 5) % sqls.size();
          Result<QueryResult> r =
              shared->Execute(sqls[i], ExecMode::kSudafShare);
          if (!r.ok() || Bytes(*r->table) != expected[i]) ++wrong[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << t;
  EXPECT_EQ(shared->rewrite_memo().entries(), kShapes.size());
}

// Two exponents equal to 6 significant digits, or within 1e-9 of the
// same integer, are different states: the second query must not be
// served the first one's cached sum.
TEST(CacheKeyPrecisionTest, ExponentsBeyondSixDigitsGetSeparateEntries) {
  for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"2.0000001", "2.0000002"}, {"2", "2.0000000001"}}) {
    Catalog catalog;
    catalog.PutTable("t", testing_util::MakeXyTable(
                              {0, 0, 0}, {10, 1000, 2}, {0, 0, 0}));
    SudafSession session(&catalog);
    auto scalar = [&](const std::string& sql, ExecMode mode) {
      Result<QueryResult> r = session.Execute(sql, mode);
      SUDAF_CHECK_MSG(r.ok(), r.status().ToString());
      return (*r)->column(0).GetNumeric(0);
    };
    const std::string first = "SELECT sum(x^" + a + ") FROM t";
    const std::string second = "SELECT sum(x^" + b + ") FROM t";
    EXPECT_EQ(scalar(first, ExecMode::kSudafShare),
              scalar(first, ExecMode::kEngine));
    EXPECT_EQ(scalar(second, ExecMode::kSudafShare),
              scalar(second, ExecMode::kEngine))
        << second;
  }
}

// Two WHERE constants equal to 6 significant digits are different data
// signatures: the second filter must not reuse the first one's group set.
TEST(CacheKeyPrecisionTest, WhereConstantsBeyondSixDigitsGetSeparateSets) {
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(
                            {0, 0, 0}, {1, 1.00000015, 2}, {0, 0, 0}));
  SudafSession session(&catalog);
  auto count = [&](const std::string& sql, ExecMode mode) {
    Result<QueryResult> r = session.Execute(sql, mode);
    SUDAF_CHECK_MSG(r.ok(), r.status().ToString());
    return (*r)->column(0).GetNumeric(0);
  };
  const std::string first = "SELECT count() FROM t WHERE x > 1.0000001";
  const std::string second = "SELECT count() FROM t WHERE x > 1.0000002";
  EXPECT_EQ(count(first, ExecMode::kSudafShare), 2.0);
  EXPECT_EQ(count(second, ExecMode::kSudafShare), 1.0);
  EXPECT_EQ(count(second, ExecMode::kEngine), 1.0);
}

// The key formatter keeps 6-digit text that round-trips.
TEST(CacheKeyPrecisionTest, ExactFormatKeepsRoundTrippingText) {
  EXPECT_EQ(FormatExactDouble(2.0), "2");
  EXPECT_EQ(FormatExactDouble(0.5), "0.5");
  EXPECT_EQ(FormatExactDouble(-1.25e-7), "-1.25e-07");
  EXPECT_EQ(FormatExactDouble(1e300), "1e+300");
  EXPECT_EQ(FormatExactDouble(2.0000001), "2.0000000999999998");
  EXPECT_EQ(FormatExactDouble(0.1), "0.1");
  EXPECT_EQ(FormatExactDouble(1.0 / 3.0), "0.33333333333333331");
}

}  // namespace
}  // namespace sudaf
