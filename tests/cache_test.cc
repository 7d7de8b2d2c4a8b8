// Tests for sudaf/cache: data signatures and the state cache.

#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "sudaf/cache.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

std::string SignatureOf(const std::string& sql) {
  auto stmt = ParseSelect(sql);
  SUDAF_CHECK_MSG(stmt.ok(), stmt.status().ToString());
  return DataSignature(**stmt);
}

// The cache API takes explicit epoch pairs everywhere (the old `epoch = 0`
// defaults let call sites silently probe with "no epoch"); these helpers
// keep the epoch-agnostic tests below terse.
StateCache::GroupSetPtr FindSet(StateCache& cache, const std::string& sig,
                                CatalogEpochs epochs = {}) {
  return cache.Find(sig, epochs, /*can_refresh=*/false).set;
}

StateCache::GroupSetPtr Create(StateCache& cache, const std::string& sig,
                               const Table& keys, int32_t num_groups,
                               CatalogEpochs epochs = {}) {
  return cache.GetOrCreate(sig, keys, num_groups, epochs,
                           /*covered_rows=*/-1);
}

TEST(DataSignatureTest, IndependentOfSelectList) {
  EXPECT_EQ(SignatureOf("SELECT qm(x) FROM t WHERE a = 1 GROUP BY g"),
            SignatureOf("SELECT stddev(x) FROM t WHERE a = 1 GROUP BY g"));
}

TEST(DataSignatureTest, CanonicalizesTableAndConjunctOrder) {
  EXPECT_EQ(
      SignatureOf("SELECT sum(x) FROM a, b WHERE k1 = k2 AND c = 1"),
      SignatureOf("SELECT sum(x) FROM b, a WHERE c = 1 AND k1 = k2"));
}

TEST(DataSignatureTest, DistinguishesPredicates) {
  EXPECT_NE(SignatureOf("SELECT sum(x) FROM t WHERE a = 1"),
            SignatureOf("SELECT sum(x) FROM t WHERE a = 2"));
  EXPECT_NE(SignatureOf("SELECT sum(x) FROM t"),
            SignatureOf("SELECT sum(x) FROM t WHERE a = 1"));
}

TEST(DataSignatureTest, DistinguishesGrouping) {
  EXPECT_NE(SignatureOf("SELECT g, sum(x) FROM t GROUP BY g"),
            SignatureOf("SELECT sum(x) FROM t"));
}

TEST(StateCacheTest, FindMissesThenHits) {
  StateCache cache;
  EXPECT_EQ(FindSet(cache, "sig"), nullptr);
  auto keys = testing_util::MakeXyTable({1, 2}, {0, 0}, {0, 0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys, 2);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(FindSet(cache, "sig"), set);
  EXPECT_EQ(cache.num_group_sets(), 1);
}

TEST(StateCacheTest, EntriesAndBytes) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1}, {0}, {0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys, 1);
  set->entries["sum_pow|x|1"] = StateCache::Entry{{1.0}, {}};
  set->entries["logclass|x"] = StateCache::Entry{{0.5}, {1.0}};
  EXPECT_EQ(cache.num_entries(), 2);
  EXPECT_GT(cache.ApproxBytes(), 0);
  cache.Clear();
  EXPECT_EQ(cache.num_group_sets(), 0);
}

TEST(StateCacheTest, StaleGroupCountRecreates) {
  StateCache cache;
  auto keys2 = testing_util::MakeXyTable({1, 2}, {0, 0}, {0, 0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys2, 2);
  set->entries["count"] = StateCache::Entry{{2.0, 3.0}, {}};
  auto keys3 = testing_util::MakeXyTable({1, 2, 3}, {0, 0, 0}, {0, 0, 0});
  StateCache::GroupSetPtr fresh = Create(cache, "sig", *keys3, 3);
  EXPECT_TRUE(fresh->entries.empty());
  EXPECT_EQ(fresh->num_groups, 3);
  // The discard is no longer silent: it is counted, and the old set is
  // really gone (a re-probe with the original count recreates again).
  EXPECT_EQ(cache.counters().stale_discards, 1);
  StateCache::GroupSetPtr back = Create(cache, "sig", *keys2, 2);
  EXPECT_TRUE(back->entries.empty());
  EXPECT_EQ(cache.counters().stale_discards, 2);
  EXPECT_EQ(cache.counters().epoch_invalidations, 0);
}

// Regression for the `epoch = 0` default-argument bug: a probe whose
// epochs disagree with the cached stamp must ALWAYS discard the set, in
// every combination of rewrite/append drift and can_refresh. The old
// defaulted API let call sites probe with "no epoch" and be served stale
// state silently.
TEST(StateCacheTest, StaleEpochProbeAlwaysDiscards) {
  auto keys = testing_util::MakeXyTable({1, 2}, {0, 0}, {0, 0});
  struct Case {
    CatalogEpochs stored, probed;
    bool can_refresh;
    bool refreshable;  // expected handoff instead of a discard
  };
  const Case cases[] = {
      // Rewrite drift: hard invalidation regardless of can_refresh.
      {{1, 10}, {2, 10}, false, false},
      {{1, 10}, {2, 10}, true, false},
      {{1, 10}, {2, 11}, true, false},
      // Append-only drift: discarded without can_refresh, handed off with.
      {{1, 10}, {1, 11}, false, false},
      {{1, 10}, {1, 11}, true, true},
  };
  for (const Case& c : cases) {
    StateCache cache;
    StateCache::GroupSetPtr set =
        cache.GetOrCreate("sig", *keys, 2, c.stored, /*covered_rows=*/2);
    set->entries["count"] = StateCache::Entry{{2.0, 3.0}, {}};
    ASSERT_EQ(cache.Find("sig", c.stored, false).set, set);

    StateCache::FindResult r = cache.Find("sig", c.probed, c.can_refresh);
    EXPECT_EQ(r.set, nullptr);  // a mismatched set is NEVER served as-is
    if (c.refreshable) {
      EXPECT_EQ(r.refreshable, set);
      EXPECT_EQ(cache.num_group_sets(), 1);  // still mapped, awaiting commit
      EXPECT_EQ(cache.counters().full_invalidations, 0);
    } else {
      EXPECT_EQ(r.refreshable, nullptr);
      EXPECT_EQ(cache.num_group_sets(), 0);
      EXPECT_EQ(cache.counters().epoch_invalidations, 1);
      EXPECT_EQ(cache.counters().full_invalidations, 1);
    }
  }
}

TEST(StateCacheTest, EpochMismatchInvalidatesOnProbe) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1, 2}, {0, 0}, {0, 0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys, 2, {1, 1});
  set->entries["count"] = StateCache::Entry{{2.0, 3.0}, {}};
  EXPECT_EQ(FindSet(cache, "sig", {1, 1}), set);

  // Probe under a newer rewrite epoch: the set is discarded, not served.
  EXPECT_EQ(FindSet(cache, "sig", {2, 1}), nullptr);
  EXPECT_EQ(cache.num_group_sets(), 0);
  EXPECT_EQ(cache.counters().epoch_invalidations, 1);

  // GetOrCreate under a newer epoch likewise recreates.
  StateCache::GroupSetPtr recreated = Create(cache, "sig", *keys, 2, {3, 1});
  recreated->entries["count"] = StateCache::Entry{{2.0, 3.0}, {}};
  StateCache::GroupSetPtr again = Create(cache, "sig", *keys, 2, {4, 1});
  EXPECT_TRUE(again->entries.empty());
  EXPECT_EQ(cache.counters().epoch_invalidations, 2);
}

// A refreshable handoff resolves exactly one probe at CommitRefresh: the
// accounting identity set_hits + delta_refreshes + full_invalidations ==
// probes must hold before, during, and after.
TEST(StateCacheTest, CommitRefreshFoldsDeltaAndKeepsAccounting) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1, 2}, {0, 0}, {0, 0});
  StateCache::GroupSetPtr set =
      cache.GetOrCreate("sig", *keys, 2, {5, 10}, /*covered_rows=*/100);
  set->entries["count"] = StateCache::Entry{{2.0, 3.0}, {}};
  ASSERT_NE(cache.Find("sig", {5, 10}, false).set, nullptr);  // 1 hit

  StateCache::FindResult r = cache.Find("sig", {5, 11}, /*can_refresh=*/true);
  ASSERT_EQ(r.set, nullptr);
  ASSERT_EQ(r.refreshable, set);
  // The pending handoff has not been counted yet.
  EXPECT_EQ(cache.counters().probes, 1);

  auto keys3 = testing_util::MakeXyTable({1, 2, 3}, {0, 0, 0}, {0, 0, 0});
  std::vector<std::pair<std::string, StateCache::Entry>> entries;
  entries.emplace_back("count", StateCache::Entry{{2.0, 5.0, 1.0}, {}});
  StateCache::GroupSetPtr fresh = cache.CommitRefresh(
      set, std::move(keys3), 3, {5, 11}, /*covered_rows=*/130, entries,
      /*delta_rows=*/30);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, set);
  EXPECT_EQ(fresh->num_groups, 3);
  EXPECT_EQ(fresh->covered_rows, 130);
  ASSERT_EQ(fresh->entries.count("count"), 1u);
  EXPECT_EQ(fresh->entries["count"].main[1], 5.0);

  const StateCache::Counters c = cache.counters();
  EXPECT_EQ(c.probes, 2);
  EXPECT_EQ(c.set_hits, 1);
  EXPECT_EQ(c.delta_refreshes, 1);
  EXPECT_EQ(c.delta_rows_scanned, 30);
  EXPECT_EQ(c.full_invalidations, 0);
  EXPECT_EQ(c.set_hits + c.delta_refreshes + c.full_invalidations, c.probes);

  // The refreshed set serves the next probe under the new epochs.
  EXPECT_EQ(cache.Find("sig", {5, 11}, false).set, fresh);
}

// A CommitRefresh that loses the race (the mapped set changed since the
// probe) must return null and leave the newer set untouched.
TEST(StateCacheTest, CommitRefreshDetectsRace) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1}, {0}, {0});
  StateCache::GroupSetPtr old_set =
      cache.GetOrCreate("sig", *keys, 1, {1, 1}, /*covered_rows=*/10);
  StateCache::FindResult r = cache.Find("sig", {1, 2}, true);
  ASSERT_EQ(r.refreshable, old_set);

  // Another query recreates the set before our refresh commits.
  StateCache::GroupSetPtr newer =
      cache.GetOrCreate("sig", *keys, 1, {1, 3}, /*covered_rows=*/30);
  ASSERT_NE(newer, old_set);

  std::vector<std::pair<std::string, StateCache::Entry>> entries;
  entries.emplace_back("count", StateCache::Entry{{1.0}, {}});
  EXPECT_EQ(cache.CommitRefresh(old_set, std::move(keys), 1, {1, 2}, 20,
                                entries, 10),
            nullptr);
  EXPECT_EQ(cache.Find("sig", {1, 3}, false).set, newer);
}

TEST(StateCacheTest, EntryPoisonDetection) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(EntryIsPoisoned(StateCache::Entry{{1.0, -2.0}, {1.0}}));
  EXPECT_FALSE(EntryIsPoisoned(StateCache::Entry{{}, {}}));
  EXPECT_TRUE(EntryIsPoisoned(StateCache::Entry{{1.0, kInf}, {}}));
  EXPECT_TRUE(EntryIsPoisoned(StateCache::Entry{{1.0}, {-kInf}}));
  EXPECT_TRUE(EntryIsPoisoned(StateCache::Entry{{std::nan("")}, {}}));
}

// ProbeEntry copies out what it finds: the whole entry, or only the
// requested groups in request order (unstamped, since the copy is not the
// cached entry); an absent key is a miss that writes nothing.
TEST(StateCacheProbeTest, MissWholeCopyAndRowSubset) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1, 2, 3}, {0, 0, 0}, {0, 0, 0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys, 3);
  ASSERT_TRUE(cache.InsertEntry(
      set.get(), "logclass|x", StateCache::Entry{{1.5, 2.5, 3.5}, {1, -1, 1}}));
  ASSERT_TRUE(cache.InsertEntry(set.get(), "count",
                                StateCache::Entry{{4.0, 5.0, 6.0}, {}}));
  const StateCache::Entry& stored = set->entries.at("logclass|x");
  ASSERT_NE(stored.shadow_crc, 0u);

  StateCache::Entry out{{9.0}, {9.0}, 7};
  EXPECT_EQ(cache.ProbeEntry(set.get(), "sum_pow|x|1", &out),
            StateCache::Probe::kMiss);
  EXPECT_EQ(out.main, std::vector<double>{9.0});
  EXPECT_EQ(cache.ProbeEntry(set.get(), "count", nullptr),
            StateCache::Probe::kHit);

  ASSERT_EQ(cache.ProbeEntry(set.get(), "logclass|x", &out),
            StateCache::Probe::kHit);
  EXPECT_EQ(out.main, (std::vector<double>{1.5, 2.5, 3.5}));
  EXPECT_EQ(out.sign, (std::vector<double>{1, -1, 1}));
  EXPECT_EQ(out.shadow_crc, stored.shadow_crc);

  const std::vector<int64_t> rows = {2, 0, 2};
  ASSERT_EQ(cache.ProbeEntry(set.get(), "logclass|x", &out, {}, &rows),
            StateCache::Probe::kHit);
  EXPECT_EQ(out.main, (std::vector<double>{3.5, 1.5, 3.5}));
  EXPECT_EQ(out.sign, (std::vector<double>{1, 1, 1}));
  EXPECT_EQ(out.shadow_crc, 0u);
  ASSERT_EQ(cache.ProbeEntry(set.get(), "count", &out, {}, &rows),
            StateCache::Probe::kHit);
  EXPECT_EQ(out.main, (std::vector<double>{6.0, 4.0, 6.0}));
  EXPECT_TRUE(out.sign.empty());
  EXPECT_EQ(out.shadow_crc, 0u);
  EXPECT_EQ(cache.counters().poison_evictions, 0);
}

// A poisoned entry planted past the insert guards is evicted by the probe
// that finds it, counted once (in the cache and in the caller's metrics),
// and never served: the next probe misses.
TEST(StateCacheProbeTest, PoisonedEntryIsEvictedAndThenMisses) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1, 2}, {0, 0}, {0, 0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys, 2);
  set->entries["bad"] = StateCache::Entry{{1.0, std::nan("")}, {}};
  set->entries["good"] = StateCache::Entry{{1.0, 2.0}, {}};
  MetricsRegistry metrics;
  CacheOps ops;
  ops.metrics = &metrics;

  StateCache::Entry out;
  EXPECT_EQ(cache.ProbeEntry(set.get(), "bad", &out, ops),
            StateCache::Probe::kPoisoned);
  EXPECT_EQ(set->entries.count("bad"), 0u);
  EXPECT_EQ(set->entries.count("good"), 1u);
  EXPECT_EQ(cache.counters().poison_evictions, 1);
  EXPECT_EQ(metrics.Snapshot().counter("sudaf.cache.poison_evictions"), 1);

  EXPECT_EQ(cache.ProbeEntry(set.get(), "bad", &out, ops),
            StateCache::Probe::kMiss);
  EXPECT_EQ(cache.counters().poison_evictions, 1);
  EXPECT_EQ(cache.ProbeEntry(set.get(), "good", &out, ops),
            StateCache::Probe::kHit);
  EXPECT_EQ(out.main, (std::vector<double>{1.0, 2.0}));
}

TEST(StateCacheTest, GroupKeysAreCopied) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({7}, {0}, {0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys, 1);
  keys.reset();  // cache must not dangle
  EXPECT_EQ(set->group_keys->column(0).GetInt64(0), 7);
}

TEST(TablesFromDataSignatureTest, RecoversTheSortedTableList) {
  auto stmt = ParseSelect("SELECT sum(x) FROM b, a WHERE k1 = k2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(TablesFromDataSignature(DataSignature(**stmt)),
            (std::vector<std::string>{"a", "b"}));
  auto single = ParseSelect("SELECT sum(x) FROM t GROUP BY g");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(TablesFromDataSignature(DataSignature(**single)),
            (std::vector<std::string>{"t"}));
  // Degenerate inputs parse to "no tables", never crash.
  EXPECT_TRUE(TablesFromDataSignature("").empty());
  EXPECT_TRUE(TablesFromDataSignature("T:;W:;G:").empty());
  EXPECT_TRUE(TablesFromDataSignature("X:bogus").empty());
}

// ---------------------------------------------------------------------------
// Byte accounting and the cost-aware eviction policy
// ---------------------------------------------------------------------------

// Pins the ApproxBytes formula: the budget must charge the group-keys
// table and the fixed map-node overheads, not just the channel doubles —
// otherwise a "bounded" cache can exceed its budget several-fold on
// key-heavy workloads.
TEST(StateCacheBytesTest, ApproxBytesFormulaRegression) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1, 2, 3}, {0, 0, 0}, {0, 0, 0});
  const std::string sig = "bytes-regression-sig";
  StateCache::GroupSetPtr set = Create(cache, sig, *keys, 3);

  int64_t expected = StateCache::kPerSetOverhead +
                     static_cast<int64_t>(sig.size()) +
                     set->group_keys->ApproxBytes();
  EXPECT_EQ(cache.ApproxBytes(), expected);
  EXPECT_GT(set->group_keys->ApproxBytes(), 0);  // the table is charged

  StateCache::Entry e1{{1.0, 2.0, 3.0}, {}};
  StateCache::Entry e2{{1.0, 2.0, 3.0}, {1.0, -1.0, 1.0}};
  ASSERT_TRUE(cache.InsertEntry(set.get(), "k1", e1));
  ASSERT_TRUE(cache.InsertEntry(set.get(), "key2", e2));
  expected += StateCache::kPerEntryOverhead + 2 + 3 * 8;      // "k1", main
  expected += StateCache::kPerEntryOverhead + 4 + (3 + 3) * 8;  // "key2"
  EXPECT_EQ(cache.ApproxBytes(), expected);
  EXPECT_EQ(StateCache::SetBytes(*set), expected);

  // Replacing an entry re-charges, it does not double-count.
  StateCache::Entry shorter{{1.0}, {}};
  ASSERT_TRUE(cache.InsertEntry(set.get(), "k1", shorter));
  expected -= 2 * 8;
  EXPECT_EQ(cache.ApproxBytes(), expected);
}

TEST(StateCacheEvictionTest, ColdUnhitSetsAreEvictedFirst) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1}, {0}, {0});
  StateCache::GroupSetPtr a = Create(cache, "sig-a", *keys, 1);
  StateCache::GroupSetPtr b = Create(cache, "sig-b", *keys, 1);
  StateCache::Entry ea{{1.0}, {}}, eb{{2.0}, {}};
  cache.InsertEntry(a.get(), "k", ea);
  cache.InsertEntry(b.get(), "k", eb);
  // Make `b` hot: repeated valid probes raise its hits and recency.
  for (int i = 0; i < 5; ++i) ASSERT_NE(FindSet(cache, "sig-b"), nullptr);

  // Now constrain the budget so only one of the two fits: the cold,
  // never-probed `a` must be the victim.
  CachePolicy policy;
  policy.max_bytes = cache.ApproxBytes() - 1;
  cache.set_policy(policy);
  cache.EnforceBudget();
  EXPECT_EQ(FindSet(cache, "sig-a"), nullptr);
  EXPECT_NE(FindSet(cache, "sig-b"), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_GT(cache.counters().bytes_evicted, 0);
  EXPECT_LE(cache.ApproxBytes(), policy.max_bytes);
}

TEST(StateCacheEvictionTest, LargerOfEquallyColdSetsGoesFirst) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1}, {0}, {0});
  StateCache::GroupSetPtr small = Create(cache, "sig-small", *keys, 1);
  StateCache::GroupSetPtr big = Create(cache, "sig-big", *keys, 1);
  StateCache::Entry es{{1.0}, {}};
  StateCache::Entry ebig{std::vector<double>(2048, 1.0), {}};
  cache.InsertEntry(small.get(), "k", es);
  cache.InsertEntry(big.get(), "k", ebig);

  CachePolicy policy;
  policy.max_bytes = cache.ApproxBytes() - 1;
  cache.set_policy(policy);
  cache.EnforceBudget();
  // score = hits / (age × bytes): equal hits and near-equal age, so the
  // big set has the lower score and is evicted.
  EXPECT_EQ(FindSet(cache, "sig-big"), nullptr);
  EXPECT_NE(FindSet(cache, "sig-small"), nullptr);
}

TEST(StateCacheEvictionTest, InsertDeclineLeavesEntryUntouched) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({1}, {0}, {0});
  StateCache::GroupSetPtr set = Create(cache, "sig", *keys, 1);
  CachePolicy policy;
  policy.max_bytes = cache.ApproxBytes() + 64;  // set fits, big entries don't
  cache.set_policy(policy);

  StateCache::Entry huge{std::vector<double>(1024, 7.0), {}};
  EXPECT_FALSE(cache.InsertEntry(set.get(), "huge", huge));
  // The caller keeps the state query-local, so it must still be intact.
  ASSERT_EQ(huge.main.size(), 1024u);
  EXPECT_EQ(huge.main[17], 7.0);
  EXPECT_EQ(cache.num_entries(), 0);
  EXPECT_LE(cache.ApproxBytes(), policy.max_bytes);
}

TEST(StateCacheEvictionTest, OversizedSetStaysQueryLocal) {
  StateCache cache;
  CachePolicy policy;
  policy.max_bytes = 64;  // smaller than any bare group set
  cache.set_policy(policy);
  auto keys = testing_util::MakeXyTable({1, 2}, {0, 0}, {0, 0});

  StateCache::GroupSetPtr set = Create(cache, "sig-over", *keys, 2);
  ASSERT_NE(set, nullptr);  // the current query can still proceed
  // ...but the set is uncached: invisible to Find, uncounted, unbudgeted.
  EXPECT_EQ(FindSet(cache, "sig-over"), nullptr);
  EXPECT_EQ(cache.num_group_sets(), 0);
  EXPECT_EQ(cache.ApproxBytes(), 0);

  StateCache::Entry entry{{1.0, 2.0}, {}};
  EXPECT_TRUE(cache.InsertEntry(set.get(), "k", entry));
  EXPECT_EQ(cache.num_entries(), 0);  // still uncounted

  // Each overflow is independent and query-local; the first set stays
  // alive for as long as its query holds the reference.
  StateCache::GroupSetPtr next = Create(cache, "sig-over2", *keys, 2);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(cache.num_group_sets(), 0);
  EXPECT_TRUE(set->uncached);
  EXPECT_EQ(set->entries.count("k"), 1u);
}

}  // namespace
}  // namespace sudaf
