// Incremental cache maintenance over append-only tables
// (docs/execution.md, "Incremental maintenance"; docs/robustness.md,
// "Durability contract").
//
// The property under test everywhere: appending rows and re-running a
// cached query folds a fused pass over ONLY the delta segments into the
// cached states, and the refreshed answer is bit-identical — not
// approximately equal — to a cold run over the same table history, at any
// thread count, under injected faults, and across a kill-and-recover of
// the persistence layer.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "sudaf/chunked.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// ---------------------------------------------------------------------------
// Catalog: append vs rewrite epochs and the segment log
// ---------------------------------------------------------------------------

TEST(CatalogEpochsTest, AppendAdvancesAppendEpochAndSegmentLogOnly) {
  Catalog cat;
  cat.PutTable("t", testing_util::MakeXyTable({0, 1}, {1.0, 2.0}, {0, 0}));
  const CatalogEpochs e0 = cat.TableEpochs("t");
  EXPECT_EQ(cat.TableSegments("t"), (std::vector<int64_t>{2}));

  ASSERT_OK(cat.AppendRows("t", *testing_util::MakeXyTable({2}, {3.0}, {0})));
  const CatalogEpochs e1 = cat.TableEpochs("t");
  EXPECT_EQ(e1.rewrite, e0.rewrite);  // appends never look destructive
  EXPECT_NE(e1.append, e0.append);
  EXPECT_EQ(cat.TableSegments("t"), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ((*cat.GetTable("t"))->num_rows(), 3);

  // A destructive touch advances the rewrite epoch and collapses the
  // segment log back to one segment covering the whole table.
  cat.TouchTable("t");
  const CatalogEpochs e2 = cat.TableEpochs("t");
  EXPECT_NE(e2.rewrite, e1.rewrite);
  EXPECT_EQ(cat.TableSegments("t"), (std::vector<int64_t>{3}));
}

TEST(CatalogEpochsTest, NotifyAppendRecordsGrowthOfExternalTables) {
  auto owned = testing_util::MakeXyTable({0}, {1.0}, {0});
  Catalog cat;
  cat.PutExternalTable("t", owned.get());
  const CatalogEpochs e0 = cat.TableEpochs("t");

  owned->column(0).AppendInt64(1);
  owned->column(1).AppendFloat64(2.0);
  owned->column(2).AppendFloat64(0.0);
  owned->FinishBulkAppend();
  ASSERT_OK(cat.NotifyAppend("t"));
  EXPECT_EQ(cat.TableEpochs("t").rewrite, e0.rewrite);
  EXPECT_EQ(cat.TableSegments("t"), (std::vector<int64_t>{1, 2}));
}

TEST(CatalogEpochsTest, NotifyAppendOnShrunkTableDegradesToRewrite) {
  auto owned = testing_util::MakeXyTable({0, 1, 2}, {1, 2, 3}, {0, 0, 0});
  Catalog cat;
  cat.PutExternalTable("t", owned.get());
  const CatalogEpochs e0 = cat.TableEpochs("t");
  ASSERT_EQ(cat.TableSegments("t").back(), 3);

  // The owner replaced the table's contents with fewer rows and then
  // (wrongly) reported it as an append. The catalog must treat that as
  // destructive: refreshing from a log that no longer describes the data
  // would serve wrong answers.
  *owned = std::move(*testing_util::MakeXyTable({9}, {9.0}, {0}));
  Status s = cat.NotifyAppend("t");
  EXPECT_FALSE(s.ok());
  const CatalogEpochs e1 = cat.TableEpochs("t");
  EXPECT_NE(e1.rewrite, e0.rewrite);  // hard invalidation, never stale
  EXPECT_EQ(cat.TableSegments("t"), (std::vector<int64_t>{1}));
}

// Regression for the combined-epoch aliasing bug: the old scheme summed
// raw per-table epochs, so `{A:2, B:1}` and `{A:1, B:2}` produced the same
// combination and a persisted set could be silently revived after the
// "wrong" table moved. Name-hash mixing makes the combination sensitive to
// WHICH table moved, not just by how much in total.
TEST(CatalogEpochsTest, CombinedEpochsDoNotAliasAcrossTables) {
  Catalog a, b;
  for (Catalog* c : {&a, &b}) {
    c->PutTable("A", testing_util::MakeXyTable({0}, {1.0}, {0}));
    c->PutTable("B", testing_util::MakeXyTable({0}, {1.0}, {0}));
  }
  ASSERT_EQ(a.TablesEpochs({"A", "B"}), b.TablesEpochs({"A", "B"}));

  // Same total number of mutations, different distribution over tables.
  a.TouchTable("A");
  b.TouchTable("B");
  EXPECT_NE(a.TablesEpochs({"A", "B"}).rewrite,
            b.TablesEpochs({"A", "B"}).rewrite);

  // The append component is mixed the same way.
  ASSERT_OK(a.AppendRows("A", *testing_util::MakeXyTable({1}, {2.0}, {0})));
  ASSERT_OK(b.AppendRows("B", *testing_util::MakeXyTable({1}, {2.0}, {0})));
  EXPECT_NE(a.TablesEpochs({"A", "B"}).append,
            b.TablesEpochs({"A", "B"}).append);

  // And unrelated tables do not perturb the combination.
  a.PutTable("C", testing_util::MakeXyTable({0}, {1.0}, {0}));
  const CatalogEpochs before = a.TablesEpochs({"A", "B"});
  a.TouchTable("C");
  EXPECT_EQ(a.TablesEpochs({"A", "B"}), before);
}

// Moving a catalog that another thread is concurrently using used to be
// silent undefined behavior; now it aborts with a diagnostic. The child
// process hammers reads from one thread while the main thread moves — the
// in-flight guard must observe the overlap and abort loudly.
TEST(CatalogMoveSafetyDeathTest, MoveWhileInUseAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Catalog cat;
        cat.PutTable("t", testing_util::MakeXyTable({0}, {1.0}, {0}));
        std::atomic<bool> stop{false};
        std::thread reader([&] {
          while (!stop.load(std::memory_order_relaxed)) {
            (void)cat.HasTable("t");
          }
        });
        for (int i = 0; i < 50000000 && !stop.load(); ++i) {
          Catalog other(std::move(cat));
          cat = std::move(other);
        }
        stop = true;
        reader.join();
      },
      "in flight");
}

TEST(CatalogMoveSafetyTest, QuiescentMovePreservesEpochState) {
  Catalog cat;
  cat.PutTable("t", testing_util::MakeXyTable({0, 1}, {1.0, 2.0}, {0, 0}));
  ASSERT_OK(cat.AppendRows("t", *testing_util::MakeXyTable({2}, {3.0}, {0})));
  const CatalogEpochs before = cat.TableEpochs("t");

  Catalog moved(std::move(cat));
  EXPECT_EQ(moved.TableEpochs("t"), before);
  EXPECT_EQ(moved.TableSegments("t"), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ((*moved.GetTable("t"))->num_rows(), 3);
}

// ---------------------------------------------------------------------------
// End-to-end incremental refresh
// ---------------------------------------------------------------------------

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.PutTable("t", MakeBase());
    cold_catalog_.PutTable("t", MakeBase());
    session_ = std::make_unique<SudafSession>(&catalog_);
  }
  void TearDown() override { FailPoint::DeactivateAll(); }

  static std::unique_ptr<Table> MakeBase() {
    Rng rng(7);
    return MakeDelta(&rng, 96, /*num_groups=*/5);
  }

  static std::unique_ptr<Table> MakeDelta(Rng* rng, int n, int num_groups) {
    std::vector<int64_t> g;
    std::vector<double> x, y;
    for (int i = 0; i < n; ++i) {
      g.push_back(static_cast<int64_t>(rng->NextBelow(num_groups)));
      double xv = rng->NextDoubleIn(-3.0, 9.0);
      x.push_back(xv);
      y.push_back(0.5 * xv + rng->NextDoubleIn(-1.0, 1.0));
    }
    return testing_util::MakeXyTable(g, x, y);
  }

  // Bit-exact digest: the refresh property is "the same doubles", not
  // "approximately equal".
  static std::string Fingerprint(const Table& t) {
    std::string fp;
    for (int c = 0; c < t.num_columns(); ++c) {
      for (int64_t r = 0; r < t.num_rows(); ++r) {
        if (t.column(c).type() == DataType::kInt64) {
          int64_t v = t.column(c).GetInt64(r);
          fp.append(reinterpret_cast<const char*>(&v), sizeof(v));
        } else if (t.column(c).type() == DataType::kString) {
          const std::string& v = t.column(c).GetString(r);
          const uint64_t n = v.size();
          fp.append(reinterpret_cast<const char*>(&n), sizeof(n));
          fp += v;
        } else {
          double v = t.column(c).GetFloat64(r);
          fp.append(reinterpret_cast<const char*>(&v), sizeof(v));
        }
      }
    }
    return fp;
  }

  struct RunOut {
    std::string fp;
    ExecStats stats;
  };

  RunOut Run(SudafSession* s, const std::string& sql,
             const ExecOptions& exec) {
    auto result = s->Execute(sql, ExecMode::kSudafShare, exec);
    SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
    return {Fingerprint(**result), result->stats};
  }

  // Cold reference: a fresh (empty-cache) session over a catalog with the
  // identical table content AND segment history. The determinism rule says
  // the fused accumulation tree is a pure function of the segment log, so
  // this is the exact run the refreshed states must match bitwise.
  std::string ColdFingerprint(const std::string& sql,
                              const ExecOptions& exec) {
    SudafSession cold(&cold_catalog_);
    return Run(&cold, sql, exec).fp;
  }

  static ExecOptions Threads(int n) {
    ExecOptions exec;
    if (n > 1) {
      exec.parallel = true;
      exec.num_threads = n;
    }
    return exec;
  }

  Catalog catalog_;
  Catalog cold_catalog_;  // receives identical appends, never cached
  std::unique_ptr<SudafSession> session_;
};

constexpr const char* kSql =
    "SELECT g, sum(x), avg(y), var(x) FROM t GROUP BY g ORDER BY g";

// Acceptance: appending rows and re-running scans only the delta segments
// (asserted via delta_rows_scanned), bit-identical to the cold run, at
// threads {1, 2, 8}.
TEST_F(IncrementalTest, AppendThenRerunScansOnlyDelta) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetUp();  // fresh catalogs + session per thread count
    const ExecOptions exec = Threads(threads);

    RunOut cold = Run(session_.get(), kSql, exec);
    EXPECT_EQ(cold.stats.cache_delta_refreshes, 0);
    EXPECT_EQ(cold.fp, ColdFingerprint(kSql, exec));

    Rng rng(101);
    auto delta = MakeDelta(&rng, 32, /*num_groups=*/7);  // two new groups
    ASSERT_OK(catalog_.AppendRows("t", *delta));
    ASSERT_OK(cold_catalog_.AppendRows("t", *delta));

    RunOut warm = Run(session_.get(), kSql, exec);
    EXPECT_EQ(warm.stats.cache_delta_refreshes, 1);
    EXPECT_EQ(warm.stats.cache_delta_rows_scanned, 32);  // ≪ 128 total
    EXPECT_EQ(warm.stats.cache_full_invalidations, 0);
    EXPECT_EQ(warm.fp, ColdFingerprint(kSql, exec))
        << "refreshed states diverge from a cold run";

    // Third run: the refreshed set is now current and serves as-is.
    RunOut again = Run(session_.get(), kSql, exec);
    EXPECT_GT(again.stats.states_from_cache, 0);
    EXPECT_FALSE(again.stats.scanned_base_data);
    EXPECT_EQ(again.fp, warm.fp);
  }
}

// A destructive rewrite between runs must hard-invalidate, never refresh.
TEST_F(IncrementalTest, RewriteStillHardInvalidates) {
  const ExecOptions exec;
  Run(session_.get(), kSql, exec);
  auto next = MakeBase();
  catalog_.PutTable("t", std::move(next));
  cold_catalog_.PutTable("t", MakeBase());

  RunOut out = Run(session_.get(), kSql, exec);
  EXPECT_EQ(out.stats.cache_delta_refreshes, 0);
  EXPECT_EQ(out.stats.cache_full_invalidations, 1);
  EXPECT_EQ(out.fp, ColdFingerprint(kSql, exec));
}

// The ungrouped (scalar aggregate) shape refreshes too: group remap is the
// degenerate single-group case.
TEST_F(IncrementalTest, UngroupedQueryRefreshes) {
  const std::string sql = "SELECT sum(x), count(x), avg(y) FROM t";
  const ExecOptions exec;
  Run(session_.get(), sql, exec);
  Rng rng(55);
  auto delta = MakeDelta(&rng, 16, 5);
  ASSERT_OK(catalog_.AppendRows("t", *delta));
  ASSERT_OK(cold_catalog_.AppendRows("t", *delta));

  RunOut warm = Run(session_.get(), sql, exec);
  EXPECT_EQ(warm.stats.cache_delta_refreshes, 1);
  EXPECT_EQ(warm.stats.cache_delta_rows_scanned, 16);
  EXPECT_EQ(warm.fp, ColdFingerprint(sql, exec));
}

// A fault inside the refresh's delta pass abandons the refresh and falls
// back to a full rescan — the query still succeeds with bit-identical
// results, and the abandonment is visible as a full invalidation.
TEST_F(IncrementalTest, RefreshFaultFallsBackToFullRescan) {
  const ExecOptions exec;
  Run(session_.get(), kSql, exec);
  Rng rng(77);
  auto delta = MakeDelta(&rng, 24, 5);
  ASSERT_OK(catalog_.AppendRows("t", *delta));
  ASSERT_OK(cold_catalog_.AppendRows("t", *delta));

  // The first morsel this query executes is in the refresh's delta pass.
  FailPoint::Activate("state_batch:morsel", Status::Internal("delta fault"),
                      /*skip=*/0, /*count=*/1);
  RunOut out = Run(session_.get(), kSql, exec);
  FailPoint::DeactivateAll();
  EXPECT_EQ(out.stats.cache_delta_refreshes, 0);
  EXPECT_EQ(out.stats.cache_full_invalidations, 1);
  EXPECT_EQ(out.fp, ColdFingerprint(kSql, exec));
}

// The accounting identity the CI perf gate enforces, checked at the
// counter level across a hit / refresh / invalidation mix.
TEST_F(IncrementalTest, ProbeAccountingIdentityHolds) {
  const ExecOptions exec;
  Run(session_.get(), kSql, exec);  // miss (not a probe: no present set)
  Run(session_.get(), kSql, exec);  // hit
  Rng rng(13);
  ASSERT_OK(catalog_.AppendRows("t", *MakeDelta(&rng, 8, 5)));
  Run(session_.get(), kSql, exec);  // delta refresh
  catalog_.TouchTable("t");
  Run(session_.get(), kSql, exec);  // full invalidation

  const StateCache::Counters c = session_->cache().counters();
  EXPECT_EQ(c.set_hits, 1);
  EXPECT_EQ(c.delta_refreshes, 1);
  EXPECT_EQ(c.full_invalidations, 1);
  EXPECT_EQ(c.set_hits + c.delta_refreshes + c.full_invalidations, c.probes);
}

// Satellite: the append-loop property. N rounds of (append random rows →
// run the cached query), each round bit-identical to a cold run over the
// same table history, at 1 and 8 threads, with probe/morsel faults
// injected along the way. Faulted queries either fail cleanly (and the
// deactivated retry matches cold) or degrade to a full rescan that
// matches cold — stale or torn state is never served.
TEST_F(IncrementalTest, AppendLoopStaysBitIdenticalToColdRuns) {
  constexpr int kRounds = 6;
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetUp();
    const ExecOptions exec = Threads(threads);
    Rng rng(2026);

    Run(session_.get(), kSql, exec);  // cold seed
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      const int n = 1 + static_cast<int>(rng.NextBelow(40));
      auto delta = MakeDelta(&rng, n, /*num_groups=*/5 + round);
      ASSERT_OK(catalog_.AppendRows("t", *delta));
      ASSERT_OK(cold_catalog_.AppendRows("t", *delta));

      if (round == 2) {
        // Probe fault: the query fails cleanly; nothing is corrupted.
        FailPoint::Activate("cache:probe", Status::Internal("probe fault"));
        auto failed = session_->Execute(kSql, ExecMode::kSudafShare, exec);
        EXPECT_FALSE(failed.ok());
        FailPoint::DeactivateAll();
      }
      if (round == 4) {
        // Morsel fault in the refresh pass: degrade to full rescan below.
        FailPoint::Activate("state_batch:morsel",
                            Status::Internal("morsel fault"), /*skip=*/0,
                            /*count=*/1);
      }
      RunOut out = Run(session_.get(), kSql, exec);
      FailPoint::DeactivateAll();
      EXPECT_EQ(out.fp, ColdFingerprint(kSql, exec));
    }
    // The loop actually exercised the incremental path, not cold reruns.
    EXPECT_GE(session_->cache().counters().delta_refreshes, kRounds - 2);
  }
}

// Key shapes the refresh must match onto the cached groups: STRING keys
// across two dictionaries, a two-column key whose components both exist
// but whose pair is new, sparse INT64 keys at the int64 limits (the hashed
// grouping path), and a delta of only new groups. Each refresh must be a
// real delta refresh and bit-identical to a cold run over the same table
// history.
TEST_F(IncrementalTest, RefreshMatchesColdAcrossKeyShapes) {
  using Pairs = std::vector<std::pair<int64_t, std::string>>;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct KeyShape {
    const char* name;
    const char* sql;
    Pairs base;
    Pairs delta;
  };
  const std::vector<KeyShape> shapes = {
      {"string key, new dictionary strings",
       "SELECT s, sum(x), avg(x), var(x) FROM k GROUP BY s ORDER BY s",
       {{0, "lima"}, {0, "oslo"}, {0, "rome"}},
       {{0, "rome"}, {0, "bern"}, {0, "kyiv"}, {0, "lima"}}},
      {"two-column (INT64, STRING) key",
       "SELECT g, s, sum(x), var(x) FROM k GROUP BY g, s ORDER BY g, s",
       {{1, "a"}, {2, "b"}, {3, "a"}},
       {{1, "b"}, {2, "b"}, {4, "a"}, {3, "c"}, {3, "a"}}},
      {"sparse INT64 keys at the limits",
       "SELECT g, sum(x), avg(x), var(x) FROM k GROUP BY g ORDER BY g",
       {{kMin, ""}, {-(int64_t{1} << 50), ""}, {0, ""}, {7, ""}, {kMax, ""}},
       {{kMax, ""}, {7, ""}, {int64_t{1} << 40, ""}, {kMin + 1, ""},
        {kMin, ""}}},
      {"delta of only new groups",
       "SELECT g, sum(x), var(x) FROM k GROUP BY g ORDER BY g",
       {{0, ""}, {1, ""}, {2, ""}},
       {{10, ""}, {11, ""}}},
  };
  // Rows of (g, s, x) with (g, s) drawn from `pairs`.
  auto make = [](uint64_t seed, int n, const Pairs& pairs) {
    Schema schema;
    SUDAF_CHECK(schema.AddField({"g", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"s", DataType::kString}).ok());
    SUDAF_CHECK(schema.AddField({"x", DataType::kFloat64}).ok());
    auto t = std::make_unique<Table>(std::move(schema));
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const auto& [g, s] = pairs[rng.NextBelow(pairs.size())];
      t->AppendRow({Value(g), Value(s), Value(rng.NextDoubleIn(-3.0, 9.0))});
    }
    return t;
  };
  for (int threads : {1, 8}) {
    for (const KeyShape& shape : shapes) {
      SCOPED_TRACE(std::string(shape.name) +
                   ", threads=" + std::to_string(threads));
      const ExecOptions exec = Threads(threads);
      Catalog live;
      Catalog cold;
      live.PutTable("k", make(11, 80, shape.base));
      cold.PutTable("k", make(11, 80, shape.base));
      SudafSession session(&live);
      Run(&session, shape.sql, exec);

      ASSERT_OK(live.AppendRows("k", *make(12, 30, shape.delta)));
      ASSERT_OK(cold.AppendRows("k", *make(12, 30, shape.delta)));
      RunOut warm = Run(&session, shape.sql, exec);
      EXPECT_EQ(warm.stats.cache_delta_refreshes, 1);
      EXPECT_EQ(warm.stats.cache_delta_rows_scanned, 30);
      EXPECT_EQ(warm.stats.cache_full_invalidations, 0);

      SudafSession cold_session(&cold);
      const std::string want = Run(&cold_session, shape.sql, exec).fp;
      ASSERT_EQ(warm.fp.size(), want.size());
      EXPECT_EQ(std::memcmp(warm.fp.data(), want.data(), want.size()), 0)
          << "refreshed answer diverges from a cold run";
    }
  }
}

// ---------------------------------------------------------------------------
// Grown storage: a table appended to through the catalog holds several
// storage chunks (storage/column.h); it must answer bit for bit like the
// same rows in one chunk with the same segment log.
// ---------------------------------------------------------------------------

class GrownTableTest : public IncrementalTest {
 protected:
  // f(g, k, ts, d INT64, s STRING, x, y FLOAT64): g a small key (direct
  // grouping), k a key spread over +-2^50 (hashed grouping), ts in
  // [0, 1000) (the chunked-sharing column), d the join key into dd.
  static std::unique_ptr<Table> MakeFact(Rng* rng, int n) {
    static const char* const kWords[] = {"ant", "bee", "cat", "dog", "elk"};
    Schema schema;
    SUDAF_CHECK(schema.AddField({"g", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"k", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"ts", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"d", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"s", DataType::kString}).ok());
    SUDAF_CHECK(schema.AddField({"x", DataType::kFloat64}).ok());
    SUDAF_CHECK(schema.AddField({"y", DataType::kFloat64}).ok());
    auto t = std::make_unique<Table>(std::move(schema));
    for (int i = 0; i < n; ++i) {
      const int64_t k = (static_cast<int64_t>(rng->NextBelow(9)) - 4) << 48;
      t->AppendRow({Value(static_cast<int64_t>(rng->NextBelow(6))), Value(k),
                    Value(static_cast<int64_t>(rng->NextBelow(1000))),
                    Value(static_cast<int64_t>(rng->NextBelow(12))),
                    Value(std::string(kWords[rng->NextBelow(5)])),
                    Value(rng->NextDoubleIn(-3.0, 9.0)),
                    Value(rng->NextDoubleIn(-1.0, 4.0))});
    }
    return t;
  }

  // dd(dk INT64, tag STRING, w FLOAT64): rows [first, first + n) of a
  // dimension keyed 0..11, so every fact row joins once.
  static std::unique_ptr<Table> MakeDim(int first, int n) {
    Schema schema;
    SUDAF_CHECK(schema.AddField({"dk", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"tag", DataType::kString}).ok());
    SUDAF_CHECK(schema.AddField({"w", DataType::kFloat64}).ok());
    auto t = std::make_unique<Table>(std::move(schema));
    for (int i = first; i < first + n; ++i) {
      t->AppendRow({Value(static_cast<int64_t>(i)),
                    Value(std::string(i % 3 == 0 ? "red" : "blue")),
                    Value(0.5 + 0.125 * i)});
    }
    return t;
  }

  void SetUp() override {
    IncrementalTest::SetUp();
    // Delta sizes that coalesce at several appends, the 60-row one all
    // the way into the base: [150, 40] [150, 40, 20] [150, 80] ...
    // [150, 80, 40, 10] + 60 -> [340], ending at [340, 30, 15].
    Rng rng(99);
    const std::vector<int> sizes = {40, 20, 20, 10, 30, 5, 5, 60, 15, 15, 15};
    auto base = MakeFact(&rng, 150);
    flat_fact_ = std::make_unique<Table>(base->schema());
    flat_fact_->AppendTable(*base);
    grown_.PutTable("f", std::move(base));
    flat_.PutExternalTable("f", flat_fact_.get());
    for (int n : sizes) {
      auto delta = MakeFact(&rng, n);
      ASSERT_OK(grown_.AppendRows("f", *delta));
      flat_fact_->AppendTable(*delta);  // the owner's in-place append
      ASSERT_OK(flat_.NotifyAppend("f"));
    }
    // The dimension grows too, so the join's build side reads rows of
    // several chunks in hash order.
    flat_dim_ = MakeDim(0, 4);
    grown_.PutTable("dd", MakeDim(0, 4));
    flat_.PutExternalTable("dd", flat_dim_.get());
    for (int first : {4, 8, 10}) {
      auto delta = MakeDim(first, first == 4 ? 4 : 2);
      ASSERT_OK(grown_.AppendRows("dd", *delta));
      flat_dim_->AppendTable(*delta);
      ASSERT_OK(flat_.NotifyAppend("dd"));
    }
    ASSERT_EQ(grown_.TableSegments("f"), flat_.TableSegments("f"));
    ASSERT_EQ(flat_fact_->ChunkEnds().size(), 1u);
    ASSERT_EQ(flat_dim_->ChunkEnds().size(), 1u);
    const Table& grown_fact = **grown_.GetTable("f");
    ASSERT_EQ(grown_fact.ChunkEnds(),
              (std::vector<int64_t>{340, 370, 385}));
    ASSERT_GT((**grown_.GetTable("dd")).ChunkEnds().size(), 1u);
  }

  static ExecOptions SmallMorsels(int threads) {
    ExecOptions exec = Threads(threads);
    exec.morsel_size = 16;  // many morsels, some ending at chunk ends
    return exec;
  }

  static std::string Answer(Catalog* catalog, const std::string& sql,
                            ExecMode mode, const ExecOptions& exec) {
    SudafSession session(catalog);
    auto result = session.Execute(sql, mode, exec);
    SUDAF_CHECK_MSG(result.ok(), sql + ": " + result.status().ToString());
    return Fingerprint(**result);
  }

  static void ExpectSameBits(const std::string& got, const std::string& want) {
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
        << "a grown table answers differently from one chunk";
  }

  Catalog grown_;  // f and dd grown through AppendRows: several chunks
  Catalog flat_;   // the same rows and segment logs in one chunk each
  std::unique_ptr<Table> flat_fact_;
  std::unique_ptr<Table> flat_dim_;
};

TEST_F(GrownTableTest, AnswersMatchOneChunkBitwiseInEveryMode) {
  const std::vector<std::string> queries = {
      // compiled WHERE, direct grouping on a small INT64 key
      "SELECT g, sum(x), avg(y), var(x), kurtosis(x) FROM f "
      "WHERE x > 1.5 GROUP BY g ORDER BY g",
      // vectorized and row-at-a-time WHERE, direct grouping on a STRING key
      "SELECT s, avg(x), stddev(y), qm(x) FROM f "
      "WHERE x * y > 0.5 AND s <> 'bee' GROUP BY s ORDER BY s",
      // hashed grouping: a wide INT64 key, then a two-column key
      "SELECT k, sum(x), count(x), skewness(y) FROM f WHERE y < 3 "
      "GROUP BY k ORDER BY k",
      "SELECT g, s, sum(x), var(y) FROM f GROUP BY g, s ORDER BY g, s",
      // a join: both sides grown, gathered into a frame
      "SELECT tag, sum(x), avg(w), var(x) FROM f, dd WHERE d = dk "
      "GROUP BY tag ORDER BY tag",
      // ungrouped
      "SELECT sum(x), avg(y), var(x), gm(w) FROM f, dd WHERE d = dk",
      "SELECT sum(x), var(y), stddev(x) FROM f",
  };
  for (int threads : {1, 8}) {
    const ExecOptions exec = SmallMorsels(threads);
    for (ExecMode mode :
         {ExecMode::kSudafShare, ExecMode::kSudafNoShare, ExecMode::kEngine}) {
      for (const std::string& sql : queries) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " mode=" +
                     std::to_string(static_cast<int>(mode)) + " " + sql);
        ExpectSameBits(Answer(&grown_, sql, mode, exec),
                       Answer(&flat_, sql, mode, exec));
      }
    }
  }
}

// Chunked sharing scans a covering range as ONE segment, so its fused
// morsels straddle the grown table's chunk ends and load piecewise.
TEST_F(GrownTableTest, ChunkedSharingMatchesOneChunkBitwise) {
  const std::vector<std::string> queries = {
      "SELECT g, qm(x), stddev(y) FROM f WHERE ts >= 200 AND ts < 700 "
      "GROUP BY g",
      "SELECT kurtosis(x), avg(y) FROM f",
  };
  for (int threads : {1, 8}) {
    SudafSession grown_session(&grown_);
    SudafSession flat_session(&flat_);
    grown_session.set_default_exec_options(SmallMorsels(threads));
    flat_session.set_default_exec_options(SmallMorsels(threads));
    ChunkedSharingSession grown(&grown_session, "f", "ts", 100);
    ChunkedSharingSession flat(&flat_session, "f", "ts", 100);
    for (const std::string& sql : queries) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " " + sql);
      auto a = grown.Execute(sql);
      auto b = flat.Execute(sql);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ExpectSameBits(Fingerprint(**a), Fingerprint(**b));
    }
  }
}

// A warm set refreshed across an append that coalesces chunks equals a
// cold run over either layout.
TEST_F(GrownTableTest, RefreshAcrossACoalescingAppendMatchesCold) {
  const std::string sql =
      "SELECT g, sum(x), avg(y), var(x) FROM f WHERE x > 0 GROUP BY g "
      "ORDER BY g";
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetUp();
    const ExecOptions exec = SmallMorsels(threads);
    SudafSession warm(&grown_);
    Run(&warm, sql, exec);
    // 15 rows after 15 carry twice: [340, 30, 15] + 15 -> [340, 60].
    Rng rng(5);
    auto delta = MakeFact(&rng, 15);
    const size_t chunks_before = (**grown_.GetTable("f")).ChunkEnds().size();
    ASSERT_OK(grown_.AppendRows("f", *delta));
    flat_fact_->AppendTable(*delta);
    ASSERT_OK(flat_.NotifyAppend("f"));
    ASSERT_LT((**grown_.GetTable("f")).ChunkEnds().size(), chunks_before);

    RunOut out = Run(&warm, sql, exec);
    EXPECT_EQ(out.stats.cache_delta_refreshes, 1);
    EXPECT_EQ(out.stats.cache_delta_rows_scanned, 15);
    EXPECT_EQ(out.stats.cache_full_invalidations, 0);
    ExpectSameBits(out.fp, Answer(&grown_, sql, ExecMode::kSudafShare, exec));
    ExpectSameBits(out.fp, Answer(&flat_, sql, ExecMode::kSudafShare, exec));
  }
}

// ---------------------------------------------------------------------------
// Kill-and-recover: a torn refresh journal yields a full recompute,
// never a stale answer (docs/robustness.md, "Durability contract").
// ---------------------------------------------------------------------------

class IncrementalCrashTest : public IncrementalTest {
 protected:
  void SetUp() override {
    IncrementalTest::SetUp();
    dir_ = testing_util::UniqueTempDir("sudaf_incremental_crash");
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FailPoint::DeactivateAll();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(IncrementalCrashTest, TornRefreshJournalRecoversToCorrectAnswers) {
  // skip=0 tears the refresh's erase record (the old set survives on disk
  // with its old coverage); skip=1 lands the erase and tears the create
  // (no set survives). Both must recover to bit-identical answers.
  for (int skip : {0, 1}) {
    SCOPED_TRACE("skip=" + std::to_string(skip));
    IncrementalTest::SetUp();
    std::string dir = dir_ + "/run" + std::to_string(skip);
    const ExecOptions exec;

    {  // Session A: populate, append, refresh with a torn WAL, "die".
      SudafSession a(&catalog_);
      ASSERT_OK(a.EnableCachePersistence(dir));
      Run(&a, kSql, exec);

      Rng rng(31);
      auto delta = MakeDelta(&rng, 20, 6);
      ASSERT_OK(catalog_.AppendRows("t", *delta));
      ASSERT_OK(cold_catalog_.AppendRows("t", *delta));

      FailPoint::Activate("cache:wal_append", Status::Internal("torn"),
                          skip, /*count=*/1000000);
      RunOut out = Run(&a, kSql, exec);  // WAL faults never fail queries
      EXPECT_EQ(out.stats.cache_delta_refreshes, 1);
      FailPoint::DeactivateAll();
      // The session dies here with a torn refresh journal — the "kill".
    }

    // Session B: recovery must drop the torn tail and serve answers that
    // match a cold run — via a second delta refresh (skip=0: the old set
    // survived with its old coverage) or a full recompute (skip=1).
    SudafSession b(&catalog_);
    ASSERT_OK(b.EnableCachePersistence(dir));
    RunOut out = Run(&b, kSql, exec);
    EXPECT_EQ(out.fp, ColdFingerprint(kSql, exec));
    if (skip == 0) {
      EXPECT_EQ(out.stats.cache_delta_refreshes, 1);
    } else {
      EXPECT_EQ(out.stats.cache_delta_refreshes, 0);
    }
    // And the recovered + re-resolved states serve the next run as-is.
    RunOut again = Run(&b, kSql, exec);
    EXPECT_GT(again.stats.states_from_cache, 0);
    EXPECT_EQ(again.fp, out.fp);
  }
}

// A clean kill-and-reopen after appends: the recovered set lags only in
// append epoch, so the reopened session refreshes instead of rescanning
// the whole table.
TEST_F(IncrementalCrashTest, RecoveredSetsRefreshAcrossRestart) {
  std::string dir = dir_ + "/restart";
  const ExecOptions exec;
  {
    SudafSession a(&catalog_);
    ASSERT_OK(a.EnableCachePersistence(dir));
    Run(&a, kSql, exec);
  }
  Rng rng(41);
  auto delta = MakeDelta(&rng, 12, 5);
  ASSERT_OK(catalog_.AppendRows("t", *delta));
  ASSERT_OK(cold_catalog_.AppendRows("t", *delta));

  SudafSession b(&catalog_);
  ASSERT_OK(b.EnableCachePersistence(dir));
  EXPECT_GT(b.cache().num_entries(), 0);  // survived the restart
  RunOut out = Run(&b, kSql, exec);
  EXPECT_EQ(out.stats.cache_delta_refreshes, 1);
  EXPECT_EQ(out.stats.cache_delta_rows_scanned, 12);
  EXPECT_EQ(out.fp, ColdFingerprint(kSql, exec));
}

}  // namespace
}  // namespace sudaf
