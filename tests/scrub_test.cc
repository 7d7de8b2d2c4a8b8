// Tests for the integrity scrubber (sudaf/scrubber.h): resident shadow-CRC
// quarantine of in-memory bit rot, on-disk corruption detection and
// snapshot republish, the background thread, the sudaf.scrub.* metrics
// surface, and the orphaned-tmp sweep at persistence attach.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/vfs.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "sudaf/cache.h"
#include "sudaf/scrubber.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// Flips one mantissa bit of a double in place — silent in-memory rot.
void FlipBit(double* v) {
  uint64_t bits;
  std::memcpy(&bits, v, sizeof(bits));
  bits ^= 1;
  std::memcpy(v, &bits, sizeof(bits));
}

class ScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::UniqueTempDir("sudaf_scrub");
    std::filesystem::remove_all(dir_);
    std::vector<int64_t> g(80);
    std::vector<double> x(80);
    for (int64_t i = 0; i < 80; ++i) {
      g[i] = i % 4;
      x[i] = static_cast<double>((i * 13) % 29) + 0.5;
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, x));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Populates the session's cache with stamped entries via a share-mode
  // query.
  void Warm(SudafSession* session) {
    auto result = session->Execute("SELECT g, var(x), sum(x) FROM t GROUP BY g",
                                   ExecMode::kSudafShare);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(session->cache().num_entries(), 0);
  }

  Catalog catalog_;
  std::string dir_;
};

// ---------------------------------------------------------------------------
// StateCache::ScrubResident — the mechanism
// ---------------------------------------------------------------------------

TEST(ScrubResidentTest, QuarantinesRottedAndPoisonedStampedEntries) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({0, 1}, {0, 0}, {0, 0});
  StateCache::GroupSetPtr set = cache.GetOrCreate("T:t,;W:;G:g,", *keys, 2, CatalogEpochs{},
                        /*covered_rows=*/-1);
  cache.InsertEntry(set.get(), "healthy", {{1.0, 2.0}, {}});
  cache.InsertEntry(set.get(), "rotted", {{3.0, 4.0}, {1, -1}});
  ASSERT_NE(set->entries.at("rotted").shadow_crc, 0u);  // stamped on insert

  // Clean pass: everything verifies.
  StateCache::ScrubResult clean = cache.ScrubResident();
  EXPECT_EQ(clean.entries_checked, 2);
  EXPECT_EQ(clean.entries_quarantined, 0);

  // Rot one bit behind the cache's back; the next pass erases the entry.
  FlipBit(&set->entries.at("rotted").main[1]);
  StateCache::ScrubResult result = cache.ScrubResident();
  EXPECT_EQ(result.entries_quarantined, 1);
  EXPECT_EQ(set->entries.count("rotted"), 0u);
  EXPECT_EQ(set->entries.count("healthy"), 1u);
  EXPECT_EQ(cache.counters().scrub_quarantines, 1);

  // Poison is quarantined too, even when its CRC is consistent.
  StateCache::Entry poison{{std::nan(""), 1.0}, {}};
  set->entries["poison"] = poison;
  set->entries.at("poison").shadow_crc = EntryShadowCrc(poison);
  result = cache.ScrubResident();
  EXPECT_EQ(result.entries_quarantined, 1);
  EXPECT_EQ(cache.counters().scrub_quarantines, 2);
}

TEST(ScrubResidentTest, UnstampedEntriesAreSkippedNotQuarantined) {
  StateCache cache;
  auto keys = testing_util::MakeXyTable({0}, {0}, {0});
  StateCache::GroupSetPtr set = cache.GetOrCreate("T:t,;W:;G:g,", *keys, 1, CatalogEpochs{},
                        /*covered_rows=*/-1);
  // Planted directly (shadow_crc == 0), the way tests and historic code
  // paths do: the scrub must not misread "unstamped" as "corrupt".
  set->entries["planted"] = StateCache::Entry{{42.0}, {}};
  StateCache::ScrubResult result = cache.ScrubResident();
  EXPECT_EQ(result.entries_quarantined, 0);
  EXPECT_EQ(set->entries.count("planted"), 1u);
}

// ---------------------------------------------------------------------------
// IntegrityScrubber end-to-end
// ---------------------------------------------------------------------------

TEST_F(ScrubTest, ResidentBitFlipIsQuarantinedAndCounted) {
  SudafSession session(&catalog_);
  Warm(&session);

  // Flip one bit in one resident entry's main channel.
  ASSERT_FALSE(session.cache().sets().empty());
  StateCache::GroupSetPtr set = session.cache().sets().begin()->second;
  ASSERT_FALSE(set->entries.empty());
  FlipBit(&set->entries.begin()->second.main[0]);

  IntegrityScrubber scrubber(&session);
  ScrubReport report = scrubber.RunOnce();
  EXPECT_GT(report.resident.entries_checked, 0);
  EXPECT_EQ(report.resident.entries_quarantined, 1);
  EXPECT_FALSE(report.store_attached);  // no persistence in this test
  EXPECT_TRUE(report.found_damage());

  // The damage is visible on the metrics surface.
  MetricsRegistry& m = session.metrics();
  EXPECT_EQ(m.counter("sudaf.scrub.passes")->value(), 1);
  EXPECT_EQ(m.counter("sudaf.scrub.entries_quarantined")->value(), 1);
  EXPECT_GT(m.counter("sudaf.scrub.entries_checked")->value(), 0);
  // And in the pass trace.
  TraceHandle trace = scrubber.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->EventCount("cache.scrub_quarantine"), 0);

  // The quarantined entry can never be served again; the next query
  // recomputes it and the answers match a cold session bit-for-bit.
  auto after = session.Execute("SELECT g, var(x), sum(x) FROM t GROUP BY g",
                               ExecMode::kSudafShare);
  ASSERT_TRUE(after.ok());
  SudafSession cold(&catalog_);
  auto want = cold.Execute("SELECT g, var(x), sum(x) FROM t GROUP BY g",
                           ExecMode::kSudafShare);
  ASSERT_TRUE(want.ok());
  for (int64_t r = 0; r < (*want)->num_rows(); ++r) {
    EXPECT_EQ((*after)->column(1).GetFloat64(r),
              (*want)->column(1).GetFloat64(r));
  }
}

TEST_F(ScrubTest, DiskBitFlipIsDetectedAndRepublished) {
  SudafSession session(&catalog_);
  ASSERT_OK(session.EnableCachePersistence(dir_));
  Warm(&session);
  // Compact so the snapshot holds the records, then rot one payload byte.
  ASSERT_OK(session.cache_persistence()->Save());
  std::string snap = session.cache_persistence()->snapshot_path();
  ASSERT_OK_AND_ASSIGN(std::string file, Vfs::Default()->ReadFile(snap));
  ASSERT_GT(file.size(), 40u);
  file[file.size() / 2] ^= 0x10;  // payload byte, well past the header
  ASSERT_OK(Vfs::Default()->WriteAtomic(snap, file));

  IntegrityScrubber scrubber(&session);
  ScrubReport report = scrubber.RunOnce();
  EXPECT_TRUE(report.store_attached);
  EXPECT_GE(report.disk.corrupt_records, 1);
  EXPECT_TRUE(report.republished);  // repaired from the clean resident cache
  EXPECT_TRUE(report.error.ok());

  MetricsRegistry& m = session.metrics();
  EXPECT_GE(m.counter("sudaf.scrub.disk_corrupt_records")->value(), 1);
  EXPECT_EQ(m.counter("sudaf.scrub.republishes")->value(), 1);

  // The republished store verifies clean and still recovers everything.
  ScrubReport second = scrubber.RunOnce();
  EXPECT_EQ(second.disk.corrupt_records, 0);
  EXPECT_GT(second.disk.records_checked, 0);
  EXPECT_FALSE(second.found_damage());

  session.DisableCachePersistence();
  SudafSession reopened(&catalog_);
  ASSERT_OK(reopened.EnableCachePersistence(dir_));
  EXPECT_EQ(reopened.cache_persistence()->recovery_stats().total_dropped(), 0);
  EXPECT_GT(reopened.cache().num_entries(), 0);
}

TEST_F(ScrubTest, DetachedStoreIsANormalState) {
  SudafSession session(&catalog_);
  Warm(&session);
  IntegrityScrubber scrubber(&session);
  ScrubReport report = scrubber.RunOnce();
  EXPECT_FALSE(report.store_attached);
  EXPECT_TRUE(report.error.ok());
  EXPECT_FALSE(report.found_damage());
  EXPECT_EQ(session.metrics().counter("sudaf.scrub.errors")->value(), 0);
}

TEST_F(ScrubTest, BackgroundThreadScrubsPeriodically) {
  SudafSession session(&catalog_);
  Warm(&session);
  ScrubOptions opts;
  opts.interval_ms = 2;
  IntegrityScrubber scrubber(&session, opts);
  ASSERT_OK(scrubber.Start());
  EXPECT_TRUE(scrubber.running());
  EXPECT_EQ(scrubber.Start().code(), StatusCode::kAlreadyExists);

  // Queries keep running while the scrubber works.
  for (int i = 0; i < 5; ++i) Warm(&session);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrubber.passes() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(scrubber.passes(), 2);
  scrubber.Stop();
  EXPECT_FALSE(scrubber.running());
  int64_t passes_at_stop = scrubber.passes();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(scrubber.passes(), passes_at_stop);  // really stopped
}

// ---------------------------------------------------------------------------
// Orphaned-tmp sweep at attach (the WriteFileAtomic crash-litter fix)
// ---------------------------------------------------------------------------

TEST_F(ScrubTest, AttachSweepsOrphanedTmpFiles) {
  // A crash between tmp-write and rename leaves litter behind; recovery
  // sweeps it so it can never be confused for (or grow into) real state.
  ASSERT_OK(Vfs::Default()->CreateDirs(dir_));
  ASSERT_OK(Vfs::Default()->WriteAtomic(dir_ + "/cache.snapshot.tmp",
                                        "crash litter"));
  ASSERT_OK(
      Vfs::Default()->WriteAtomic(dir_ + "/cache.wal.tmp", "more litter"));
  ASSERT_OK(Vfs::Default()->WriteAtomic(dir_ + "/unrelated.txt", "keep me"));

  SudafSession session(&catalog_);
  ASSERT_OK(session.EnableCachePersistence(dir_));
  EXPECT_EQ(session.cache_persistence()->recovery_stats().orphan_tmps_removed,
            2);
  EXPECT_FALSE(Vfs::Default()->Exists(dir_ + "/cache.snapshot.tmp"));
  EXPECT_FALSE(Vfs::Default()->Exists(dir_ + "/cache.wal.tmp"));
  // Not ours, not touched.
  EXPECT_TRUE(Vfs::Default()->Exists(dir_ + "/unrelated.txt"));
}

}  // namespace
}  // namespace sudaf
