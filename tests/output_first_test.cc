// Output-first terminate (docs/execution.md, "Output-first terminate"):
// every rewritten-query path decides its output rows on the group keys,
// then serves and terminates only those rows. Its answers must be
// bit-identical to the path's full result (no ORDER BY, LIMIT or HAVING)
// filtered, stably sorted and cut — and the sudaf.serve.rows counter shows
// how much it served.

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sudaf/chunked.h"
#include "sudaf/session.h"
#include "sudaf/view_rewrite.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

struct OrderKey {
  std::string column;
  bool ascending = true;
};

// One ORDER BY / LIMIT / HAVING variant of a base query, with what the
// expected answer does to the full result: keep rows passing `having`,
// stable-sort on `order`, cut to `limit`.
struct Variant {
  std::string suffix;
  std::vector<OrderKey> order;
  int64_t limit = -1;
  std::function<bool(const Table&, int64_t)> having;
};

// Reference order of one key: NaN above every number, written
// independently of the engine's kernel.
bool CellLess(const Column& c, int64_t a, int64_t b) {
  switch (c.type()) {
    case DataType::kInt64:
      return c.GetInt64(a) < c.GetInt64(b);
    case DataType::kString:
      return c.GetString(a) < c.GetString(b);
    case DataType::kFloat64: {
      const double x = c.GetFloat64(a);
      const double y = c.GetFloat64(b);
      if (std::isnan(x) || std::isnan(y)) return !std::isnan(x) && std::isnan(y);
      return x < y;
    }
  }
  return false;
}

std::vector<int64_t> ExpectedRows(const Table& full, const Variant& v) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < full.num_rows(); ++r) {
    if (!v.having || v.having(full, r)) rows.push_back(r);
  }
  std::vector<std::pair<const Column*, bool>> keys;
  for (const OrderKey& k : v.order) {
    keys.emplace_back(*full.GetColumn(k.column), k.ascending);
  }
  std::stable_sort(rows.begin(), rows.end(), [&keys](int64_t a, int64_t b) {
    for (const auto& [col, asc] : keys) {
      if (CellLess(*col, a, b)) return asc;
      if (CellLess(*col, b, a)) return !asc;
    }
    return false;
  });
  if (v.limit >= 0 && v.limit < static_cast<int64_t>(rows.size())) {
    rows.resize(v.limit);
  }
  return rows;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectBitIdentical(const Table& got, const Table& full,
                        const std::vector<int64_t>& rows) {
  ASSERT_EQ(got.num_columns(), full.num_columns());
  ASSERT_EQ(got.num_rows(), static_cast<int64_t>(rows.size()));
  for (int c = 0; c < got.num_columns(); ++c) {
    const Column& g = got.column(c);
    const Column& f = full.column(c);
    ASSERT_EQ(g.type(), f.type());
    for (int64_t r = 0; r < got.num_rows(); ++r) {
      switch (g.type()) {
        case DataType::kInt64:
          EXPECT_EQ(g.GetInt64(r), f.GetInt64(rows[r])) << "col " << c;
          break;
        case DataType::kString:
          EXPECT_EQ(g.GetString(r), f.GetString(rows[r])) << "col " << c;
          break;
        case DataType::kFloat64:
          EXPECT_TRUE(SameBits(g.GetFloat64(r), f.GetFloat64(rows[r])))
              << "col " << c << " row " << r << ": " << g.GetFloat64(r)
              << " vs " << f.GetFloat64(rows[r]);
          break;
      }
    }
  }
}

class OutputFirstTest : public ::testing::Test {
 protected:
  static constexpr const char* kAggs =
      "kurtosis(x) k, qm(x) q, gm_prod(x) p, var(x) v, count() c";
  static constexpr const char* kViewAggs =
      "kurtosis(x) k, qm(x) q, var(x) v, count() c";

  void SetUp() override {
    // t(g, h, ts, x): 8 × 4 (g, h) groups; h repeats, so ORDER BY h ties.
    // Group g = 7 is constant (its kurtosis is NaN) and x changes sign, so
    // gm_prod serves through the sign channel.
    Schema schema;
    ASSERT_OK(schema.AddField({"g", DataType::kInt64}));
    ASSERT_OK(schema.AddField({"h", DataType::kInt64}));
    ASSERT_OK(schema.AddField({"ts", DataType::kInt64}));
    ASSERT_OK(schema.AddField({"x", DataType::kFloat64}));
    auto t = std::make_unique<Table>(std::move(schema));
    Rng rng(1313);
    for (int i = 0; i < 640; ++i) {
      const int64_t g = static_cast<int64_t>(rng.NextBelow(8));
      t->column(0).AppendInt64(g);
      t->column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(4)));
      t->column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(1000)));
      double x = rng.NextDoubleIn(0.5, 1.5);
      if (rng.NextBelow(9) == 0) x = -x;
      t->column(3).AppendFloat64(g == 7 ? 2.0 : x);
    }
    t->FinishBulkAppend();
    catalog_.PutTable("t", std::move(t));
  }

  static std::string Sql(const char* aggs, const std::string& suffix) {
    return std::string("SELECT g, h, ") + aggs + " FROM t GROUP BY g, h" +
           (suffix.empty() ? "" : " " + suffix);
  }

  // The variants, for a base query with `n` groups.
  static std::vector<Variant> Variants(int64_t n) {
    std::vector<Variant> out = {
        {"ORDER BY g", {{"g", true}}, -1, nullptr},
        {"ORDER BY g DESC", {{"g", false}}, -1, nullptr},
        {"ORDER BY h", {{"h", true}}, -1, nullptr},
        {"ORDER BY h DESC, g", {{"h", false}, {"g", true}}, -1, nullptr},
        {"ORDER BY h, g DESC LIMIT 9",
         {{"h", true}, {"g", false}}, 9, nullptr},
        {"ORDER BY k", {{"k", true}}, -1, nullptr},
        {"ORDER BY k DESC LIMIT 5", {{"k", false}}, 5, nullptr},
        {"HAVING q > 0.9 ORDER BY g LIMIT 6",
         {{"g", true}},
         6,
         [](const Table& t, int64_t r) {
           return (*t.GetColumn("q"))->GetFloat64(r) > 0.9;
         }},
        {"HAVING c >= 20", {}, -1,
         [](const Table& t, int64_t r) {
           return (*t.GetColumn("c"))->GetFloat64(r) >= 20;
         }},
    };
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{20}, n, n + 5}) {
      const std::string lim = " LIMIT " + std::to_string(k);
      out.push_back({"ORDER BY h" + lim, {{"h", true}}, k, nullptr});
      out.push_back({"ORDER BY g DESC" + lim, {{"g", false}}, k, nullptr});
      out.push_back({lim.substr(1), {}, k, nullptr});
    }
    return out;
  }

  // Runs every variant through `run` and checks it against `full`.
  static void CheckVariants(
      const Table& full, const char* aggs,
      const std::function<Result<std::unique_ptr<Table>>(const std::string&)>&
          run) {
    ASSERT_GT(full.num_rows(), 20);
    for (const Variant& v : Variants(full.num_rows())) {
      const std::string sql = Sql(aggs, v.suffix);
      SCOPED_TRACE(sql);
      Result<std::unique_ptr<Table>> got = run(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(**got, full, ExpectedRows(full, v));
    }
  }

  static Result<std::unique_ptr<Table>> Run(SudafSession* session,
                                            const std::string& sql,
                                            ExecMode mode) {
    SUDAF_ASSIGN_OR_RETURN(QueryResult r, session->Execute(sql, mode));
    return std::move(r.table);
  }

  Catalog catalog_;
};

TEST_F(OutputFirstTest, SoloWarmHitsMatchFullResult) {
  SudafSession session(&catalog_);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> full,
                       Run(&session, Sql(kAggs, ""), ExecMode::kSudafShare));
  CheckVariants(*full, kAggs, [&](const std::string& sql) {
    return Run(&session, sql, ExecMode::kSudafShare);
  });
}

TEST_F(OutputFirstTest, SoloColdRunsMatchFullResult) {
  SudafSession reference(&catalog_);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> full,
                       Run(&reference, Sql(kAggs, ""), ExecMode::kSudafShare));
  CheckVariants(*full, kAggs, [&](const std::string& sql) {
    SudafSession cold(&catalog_);
    return Run(&cold, sql, ExecMode::kSudafShare);
  });
}

TEST_F(OutputFirstTest, SoloNoShareMatchesFullResult) {
  SudafSession session(&catalog_);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> full,
                       Run(&session, Sql(kAggs, ""), ExecMode::kSudafNoShare));
  CheckVariants(*full, kAggs, [&](const std::string& sql) {
    return Run(&session, sql, ExecMode::kSudafNoShare);
  });
}

// One shared group per batch: the full query and every variant share a
// data signature. The first batch computes, the second is served warm.
TEST_F(OutputFirstTest, SharedGroupMembersMatchFullResult) {
  for (ExecMode mode : {ExecMode::kSudafShare, ExecMode::kSudafNoShare}) {
    SCOPED_TRACE(static_cast<int>(mode));
    SudafSession session(&catalog_);
    SudafSession solo(&catalog_);
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> solo_full,
                         Run(&solo, Sql(kAggs, ""), mode));
    std::vector<std::string> sqls = {Sql(kAggs, "")};
    const std::vector<Variant> variants = Variants(solo_full->num_rows());
    for (const Variant& v : variants) sqls.push_back(Sql(kAggs, v.suffix));
    for (int round = 0; round < 2; ++round) {
      BatchExecStats bstats;
      std::vector<Result<QueryResult>> results =
          session.ExecuteBatch(sqls, mode, &bstats);
      EXPECT_EQ(bstats.groups_shared, 1);
      ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
      const Table& full = *results[0]->table;
      // Batching is bit-identical to running alone.
      ExpectBitIdentical(full, *solo_full,
                         ExpectedRows(*solo_full, Variant{}));
      for (size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE(sqls[i + 1]);
        ASSERT_TRUE(results[i + 1].ok()) << results[i + 1].status().ToString();
        ExpectBitIdentical(*results[i + 1]->table, full,
                           ExpectedRows(full, variants[i]));
      }
    }
  }
}

TEST_F(OutputFirstTest, ChunkedMatchesFullResult) {
  SudafSession session(&catalog_);
  ChunkedSharingSession chunked(&session, "t", "ts", /*chunk_width=*/100);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> full,
                       chunked.Execute(Sql(kAggs, "")));
  CheckVariants(*full, kAggs,
                [&](const std::string& sql) { return chunked.Execute(sql); });
}

TEST_F(OutputFirstTest, ViewRewriteMatchesFullResult) {
  SudafSession session(&catalog_);
  ASSERT_OK_AND_ASSIGN(
      AggregateView view,
      MaterializeAggregateView(
          &session, "v1",
          "SELECT g, h, count(), sum(x), sum(x^2), sum(x^3), sum(x^4) "
          "FROM t GROUP BY g, h"));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> full,
                       ExecuteWithView(&session, view, Sql(kViewAggs, "")));
  CheckVariants(*full, kViewAggs, [&](const std::string& sql) {
    return ExecuteWithView(&session, view, sql);
  });
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ServeState copies a value only when the sharing function is exactly the
// identity. A coefficient of 1 + 2^-52 passes Shape::IsIdentity()'s
// tolerance but changes bits, so it must still be applied.
TEST(ServeStateTest, OnlyAnExactIdentityCopies) {
  const std::vector<double> main = {3.0,        -0.0,     4.9e-324,
                                    0.1 + 0.2, -7.5e300, 1.0};
  const StateCache::Entry entry{main, {}};
  OutputRows rows;
  rows.presorted = true;
  rows.groups = {5, 0, 3, 1, 2, 4};
  const AggStateDef target;
  const StateClass plain;  // no sign channel to restore
  std::vector<double> out;

  SharedComputation near;
  near.r.a = 1.0 + 0x1p-52;
  ASSERT_TRUE(near.IsIdentity());
  ASSERT_FALSE(near.IsExactIdentity());
  for (const StateClass* cls : {static_cast<const StateClass*>(nullptr),
                                &plain}) {
    EXPECT_EQ(ServeState(entry, false, rows, target, cls, &near, &out), 6);
    bool changed = false;
    for (size_t r = 0; r < rows.groups.size(); ++r) {
      const double x = main[rows.groups[r]];
      EXPECT_EQ(Bits(out[r]), Bits(near.Apply(x))) << "row " << r;
      changed |= Bits(out[r]) != Bits(x);
    }
    EXPECT_TRUE(changed) << "the near-identity multiply was skipped";
  }

  const SharedComputation exact;
  ASSERT_TRUE(exact.IsExactIdentity());
  for (const StateClass* cls : {static_cast<const StateClass*>(nullptr),
                                &plain}) {
    EXPECT_EQ(ServeState(entry, false, rows, target, cls, &exact, &out), 6);
    for (size_t r = 0; r < rows.groups.size(); ++r) {
      const double x = main[rows.groups[r]];
      EXPECT_EQ(Bits(out[r]), Bits(x)) << "row " << r;
      EXPECT_EQ(Bits(out[r]), Bits(exact.Apply(x))) << "row " << r;
    }
  }
}

// sudaf.serve.rows counts state values served: a warm hit ordered and cut
// on its group keys serves LIMIT × states, every other query serves every
// group.
TEST_F(OutputFirstTest, ServeRowsCountsOnlyOutputRows) {
  SudafSession session(&catalog_);
  const std::string base = "SELECT g, h, qm(x) q FROM t GROUP BY g, h";
  ASSERT_OK_AND_ASSIGN(QueryResult cold,
                       session.Execute(base, ExecMode::kSudafShare));
  const int64_t groups = cold->num_rows();
  const int64_t states = cold.stats.num_states;
  ASSERT_EQ(states, 2);  // Σx², count
  EXPECT_EQ(cold.stats.serve_rows, groups * states);

  ASSERT_OK_AND_ASSIGN(
      QueryResult top,
      session.Execute(base + " ORDER BY h DESC, g LIMIT 3",
                      ExecMode::kSudafShare));
  EXPECT_EQ(top.stats.states_from_cache, states);
  EXPECT_EQ(top.stats.serve_rows, 3 * states);

  ASSERT_OK_AND_ASSIGN(QueryResult warm,
                       session.Execute(base, ExecMode::kSudafShare));
  EXPECT_EQ(warm.stats.serve_rows, groups * states);

  // Ordering by an aggregate, or filtering with HAVING, needs every
  // group's value first.
  for (const char* suffix : {" ORDER BY q LIMIT 3", " HAVING q > 1 LIMIT 3"}) {
    ASSERT_OK_AND_ASSIGN(QueryResult all, session.Execute(
                                              base + suffix,
                                              ExecMode::kSudafShare));
    EXPECT_EQ(all.stats.serve_rows, groups * states) << suffix;
  }

  // The shared-group path counts the same way, per member.
  std::vector<Result<QueryResult>> batch = session.ExecuteBatch(
      {base + " ORDER BY g LIMIT 4", base}, ExecMode::kSudafShare);
  ASSERT_TRUE(batch[0].ok() && batch[1].ok());
  EXPECT_EQ(batch[0]->stats.serve_rows, 4 * states);
  EXPECT_EQ(batch[1]->stats.serve_rows, groups * states);
}

}  // namespace
}  // namespace sudaf
