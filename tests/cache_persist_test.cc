// Tests for the durable state cache (docs/robustness.md, "Durability &
// memory budget"): CRC32C, the file-I/O helpers, snapshot round-trips,
// per-record corruption recovery, the kill-and-reopen crash property over
// every persistence failpoint site, cost-aware eviction under a byte
// budget, and WAL compaction.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/failpoint.h"
#include "common/vfs.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "sudaf/cache_persist.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswers) {
  // The canonical CRC-32C (Castagnoli) check value.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
}

TEST(Crc32cTest, ContinuationMatchesOneShot) {
  const std::string data = "stateful checksums must compose";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32c(data.data(), split);
    crc = Crc32c(data.data() + split, data.size() - split, crc);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

// Crc32c takes the SSE4.2 instruction where the CPU has it; the table path
// is the fallback. Both must agree on every length, start alignment and
// seed, and a checksum chained through pieces must not depend on which
// path computed which piece.
TEST(Crc32cTest, HardwarePathMatchesTable) {
  EXPECT_EQ(internal::Crc32cPortable("123456789", 9), 0xE3069283u);
  Rng rng(2718);
  std::vector<unsigned char> buf(300 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextUint64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + offset;
      const uint32_t seed =
          len % 3 == 0 ? 0u : static_cast<uint32_t>(rng.NextUint64());
      ASSERT_EQ(Crc32c(p, len, seed), internal::Crc32cPortable(p, len, seed))
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
  uint32_t hw = 0x9E3779B9u;
  uint32_t table = hw;
  uint32_t mixed = hw;
  size_t pos = 0;
  for (int piece = 0; pos < buf.size(); ++piece) {
    const size_t len =
        std::min(buf.size() - pos, static_cast<size_t>(rng.NextBelow(41)));
    hw = Crc32c(buf.data() + pos, len, hw);
    table = internal::Crc32cPortable(buf.data() + pos, len, table);
    mixed = piece % 2 == 0
                ? Crc32c(buf.data() + pos, len, mixed)
                : internal::Crc32cPortable(buf.data() + pos, len, mixed);
    ASSERT_EQ(hw, table) << "piece " << piece;
    ASSERT_EQ(mixed, table) << "piece " << piece;
    pos += len;
  }
  EXPECT_EQ(hw, Crc32c(buf.data(), buf.size(), 0x9E3779B9u));
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t clean = Crc32c(data);
  for (size_t byte : {size_t{0}, data.size() / 2, data.size() - 1}) {
    std::string flipped = data;
    flipped[byte] ^= 0x40;
    EXPECT_NE(Crc32c(flipped), clean);
  }
}

// ---------------------------------------------------------------------------
// File operations through the default Vfs
// ---------------------------------------------------------------------------

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::UniqueTempDir("sudaf_vfs_files");
    std::filesystem::remove_all(dir_);
    ASSERT_OK(Vfs::Default()->CreateDirs(dir_));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(FileIoTest, ReadMissingFileIsNotFound) {
  auto result = Vfs::Default()->ReadFile(dir_ + "/nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Vfs::Default()->FileSize(dir_ + "/nope"), -1);
  EXPECT_FALSE(Vfs::Default()->Exists(dir_ + "/nope"));
}

TEST_F(FileIoTest, AtomicWriteRoundTripsAndReplaces) {
  std::string path = dir_ + "/f";
  std::string binary("\x00\x01snapshot\xFF\x7F", 12);
  ASSERT_OK(Vfs::Default()->WriteAtomic(path, binary));
  ASSERT_OK_AND_ASSIGN(std::string back, Vfs::Default()->ReadFile(path));
  EXPECT_EQ(back, binary);
  // Replace: only the new content is visible, and no tmp file lingers.
  ASSERT_OK(Vfs::Default()->WriteAtomic(path, "v2"));
  ASSERT_OK_AND_ASSIGN(back, Vfs::Default()->ReadFile(path));
  EXPECT_EQ(back, "v2");
  EXPECT_FALSE(Vfs::Default()->Exists(path + ".tmp"));
}

TEST_F(FileIoTest, AppendCreatesAndExtends) {
  std::string path = dir_ + "/wal";
  ASSERT_OK(Vfs::Default()->Append(path, "abc"));
  ASSERT_OK(Vfs::Default()->Append(path, "def"));
  ASSERT_OK_AND_ASSIGN(std::string back, Vfs::Default()->ReadFile(path));
  EXPECT_EQ(back, "abcdef");
  EXPECT_EQ(Vfs::Default()->FileSize(path), 6);
}

TEST_F(FileIoTest, RemoveIsIdempotentAndDirsNest) {
  std::string path = dir_ + "/f";
  ASSERT_OK(Vfs::Default()->WriteAtomic(path, "x"));
  ASSERT_OK(Vfs::Default()->RemoveIfExists(path));
  ASSERT_OK(Vfs::Default()->RemoveIfExists(path));  // absent is not an error
  ASSERT_OK(Vfs::Default()->CreateDirs(dir_ + "/a/b/c"));
  // An existing directory is not an error.
  ASSERT_OK(Vfs::Default()->CreateDirs(dir_ + "/a/b/c"));
  ASSERT_OK(Vfs::Default()->WriteAtomic(dir_ + "/a/b/c/f", "y"));
}

// ---------------------------------------------------------------------------
// Snapshot round-trip and per-record corruption recovery
// ---------------------------------------------------------------------------

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::UniqueTempDir("sudaf_persist");
    std::filesystem::remove_all(dir_);
    ASSERT_OK(Vfs::Default()->CreateDirs(dir_));
    catalog_.PutTable("t",
                      testing_util::MakeXyTable({0, 1}, {1.0, 2.0}, {0, 0}));
  }
  void TearDown() override {
    FailPoint::DeactivateAll();
    std::filesystem::remove_all(dir_);
  }

  // Plants a two-group set carrying bit-pattern-sensitive doubles.
  StateCache::GroupSetPtr Plant(StateCache* cache, const std::string& sig) {
    auto keys = testing_util::MakeXyTable({0, 1}, {0, 0}, {0, 0});
    StateCache::GroupSetPtr set =
        cache->GetOrCreate(sig, *keys, 2, catalog_.TablesEpochs({"t"}),
                            /*covered_rows=*/2);
    StateCache::Entry tricky{{-0.0, 4.9e-324}, {}};       // signed zero,
    StateCache::Entry log{{0.1 + 0.2, 1e-308}, {1, -1}};  // denormal, 0.3…
    cache->InsertEntry(set.get(), "sum_pow|x|1", tricky);
    cache->InsertEntry(set.get(), "logclass|x", log);
    return set;
  }

  static std::string BitsOf(const std::vector<double>& v) {
    std::string bits(v.size() * sizeof(double), '\0');
    std::memcpy(bits.data(), v.data(), bits.size());
    return bits;
  }

  Catalog catalog_;
  std::string dir_;
};

TEST_F(PersistTest, SnapshotRoundTripIsBitIdentical) {
  StateCache cache;
  Plant(&cache, "T:t,;W:;G:g,");
  std::string path = dir_ + "/snap";
  ASSERT_OK(SaveCacheSnapshot(cache, path));

  StateCache back;
  CacheRecoveryStats stats;
  ASSERT_OK(LoadCacheSnapshot(path, catalog_, &back, &stats));
  EXPECT_EQ(stats.sets_recovered, 1);
  EXPECT_EQ(stats.entries_recovered, 2);
  EXPECT_EQ(stats.total_dropped(), 0);

  StateCache::GroupSetPtr set =
      back.Find("T:t,;W:;G:g,", catalog_.TablesEpochs({"t"}), false).set;
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->num_groups, 2);
  ASSERT_EQ(set->entries.size(), 2u);
  // Channel doubles survive as raw bit patterns — -0.0 stays -0.0, the
  // denormal stays denormal, 0.1 + 0.2 keeps its exact rounding error.
  const StateCache::Entry& orig =
      cache.sets().at("T:t,;W:;G:g,")->entries.at("logclass|x");
  const StateCache::Entry& rec = set->entries.at("logclass|x");
  EXPECT_EQ(BitsOf(orig.main), BitsOf(rec.main));
  EXPECT_EQ(BitsOf(orig.sign), BitsOf(rec.sign));
  EXPECT_EQ(
      BitsOf(cache.sets().at("T:t,;W:;G:g,")->entries.at("sum_pow|x|1").main),
      BitsOf(set->entries.at("sum_pow|x|1").main));
  // And the group-keys table came back too.
  ASSERT_NE(set->group_keys, nullptr);
  EXPECT_EQ(set->group_keys->num_rows(), 2);
  EXPECT_EQ(set->group_keys->column(0).GetInt64(1), 1);
}

TEST_F(PersistTest, MissingOrForeignFileIsATypedError) {
  StateCache cache;
  CacheRecoveryStats stats;
  Status st = LoadCacheSnapshot(dir_ + "/absent", catalog_, &cache, &stats);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  ASSERT_OK(Vfs::Default()->WriteAtomic(dir_ + "/foreign",
                                        "definitely not a snapshot"));
  st = LoadCacheSnapshot(dir_ + "/foreign", catalog_, &cache, &stats);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Walks the framed record stream and returns the byte ranges of each
// record (offset of the length field, total framed size).
std::vector<std::pair<size_t, size_t>> RecordRanges(const std::string& file) {
  constexpr size_t kHeaderLen = 12;
  std::vector<std::pair<size_t, size_t>> out;
  size_t pos = kHeaderLen;
  while (pos + 8 <= file.size()) {
    uint32_t len = 0;
    std::memcpy(&len, file.data() + pos, 4);  // little-endian host assumed
    out.emplace_back(pos, 8 + len);
    pos += 8 + len;
  }
  return out;
}

TEST_F(PersistTest, FlippedByteDropsOnlyThatRecord) {
  StateCache cache;
  Plant(&cache, "T:t,;W:;G:a,");
  Plant(&cache, "T:t,;W:;G:b,");
  Plant(&cache, "T:t,;W:;G:c,");
  std::string path = dir_ + "/snap";
  ASSERT_OK(SaveCacheSnapshot(cache, path));

  ASSERT_OK_AND_ASSIGN(std::string file, Vfs::Default()->ReadFile(path));
  auto ranges = RecordRanges(file);
  ASSERT_EQ(ranges.size(), 3u);
  // Corrupt one payload byte in the middle record (offset second/2 is past
  // the 8-byte frame header for any non-trivial payload).
  file[ranges[1].first + ranges[1].second / 2] ^= 0x01;
  ASSERT_OK(Vfs::Default()->WriteAtomic(path, file));

  StateCache back;
  CacheRecoveryStats stats;
  ASSERT_OK(LoadCacheSnapshot(path, catalog_, &back, &stats));
  EXPECT_EQ(stats.records_dropped_checksum, 1);
  EXPECT_EQ(stats.records_dropped_torn, 0);
  EXPECT_EQ(stats.sets_recovered, 2);
  EXPECT_EQ(back.num_group_sets(), 2);
}

TEST_F(PersistTest, TruncatedTailEndsTheScanKeepingThePrefix) {
  StateCache cache;
  Plant(&cache, "T:t,;W:;G:a,");
  Plant(&cache, "T:t,;W:;G:b,");
  Plant(&cache, "T:t,;W:;G:c,");
  std::string path = dir_ + "/snap";
  ASSERT_OK(SaveCacheSnapshot(cache, path));

  ASSERT_OK_AND_ASSIGN(std::string file, Vfs::Default()->ReadFile(path));
  auto ranges = RecordRanges(file);
  ASSERT_EQ(ranges.size(), 3u);
  // Tear mid-way through the second record: a crash during append.
  file.resize(ranges[1].first + ranges[1].second / 2);
  ASSERT_OK(Vfs::Default()->WriteAtomic(path, file));

  StateCache back;
  CacheRecoveryStats stats;
  ASSERT_OK(LoadCacheSnapshot(path, catalog_, &back, &stats));
  EXPECT_EQ(stats.records_dropped_torn, 1);
  EXPECT_EQ(stats.sets_recovered, 1);
  ASSERT_NE(back.Find("T:t,;W:;G:a,", catalog_.TablesEpochs({"t"}), false).set, nullptr);
}

TEST_F(PersistTest, StaleEpochSetsAreDroppedOnLoad) {
  StateCache cache;
  Plant(&cache, "T:t,;W:;G:g,");
  std::string path = dir_ + "/snap";
  ASSERT_OK(SaveCacheSnapshot(cache, path));

  // The table changed after the snapshot: its states describe dead data.
  catalog_.PutTable("t", testing_util::MakeXyTable({5}, {9.0}, {0}));
  StateCache back;
  CacheRecoveryStats stats;
  ASSERT_OK(LoadCacheSnapshot(path, catalog_, &back, &stats));
  EXPECT_EQ(stats.sets_dropped_epoch, 1);
  EXPECT_EQ(stats.sets_recovered, 0);
  EXPECT_EQ(back.num_group_sets(), 0);
}

TEST_F(PersistTest, PoisonedEntriesAreQuarantinedOnLoad) {
  StateCache cache;
  StateCache::GroupSetPtr set = Plant(&cache, "T:t,;W:;G:g,");
  // Plant poison directly (bypassing the insert-time guard), as bit rot
  // or a historic bug would.
  set->entries["count|x"] = StateCache::Entry{{std::nan(""), 1.0}, {}};
  std::string path = dir_ + "/snap";
  ASSERT_OK(SaveCacheSnapshot(cache, path));

  StateCache back;
  CacheRecoveryStats stats;
  ASSERT_OK(LoadCacheSnapshot(path, catalog_, &back, &stats));
  EXPECT_EQ(stats.entries_quarantined, 1);
  EXPECT_EQ(stats.entries_recovered, 2);  // the healthy ones survive
  StateCache::GroupSetPtr rec =
      back.Find("T:t,;W:;G:g,", catalog_.TablesEpochs({"t"}), false).set;
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->entries.count("count|x"), 0u);
}

// ---------------------------------------------------------------------------
// CachePersistence: WAL replay, compaction, and crash windows
// ---------------------------------------------------------------------------

TEST_F(PersistTest, WalReplayRebuildsJournaledMutations) {
  CatalogEpochs epochs = catalog_.TablesEpochs({"t"});
  {
    StateCache cache;
    ASSERT_OK_AND_ASSIGN(auto persist,
                         CachePersistence::Open(dir_, &catalog_, &cache));
    Plant(&cache, "T:t,;W:;G:g,");
    EXPECT_GT(persist->wal_appends(), 0);
    EXPECT_EQ(persist->wal_errors(), 0);
    // "Kill": the process ends with mutations only in the WAL (the
    // snapshot was compacted empty at Open).
  }
  StateCache cache2;
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &cache2));
  EXPECT_EQ(persist->recovery_stats().sets_recovered, 1);
  EXPECT_EQ(persist->recovery_stats().entries_recovered, 2);
  EXPECT_GT(persist->recovery_stats().wal_records_replayed, 0);
  EXPECT_EQ(persist->recovery_stats().total_dropped(), 0);
  StateCache::GroupSetPtr set = cache2.Find("T:t,;W:;G:g,", epochs, false).set;
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->entries.size(), 2u);
}

// The journal's byte format, pinned. One set keyed on an INT64 and a
// STRING column is journaled with two entries: a clean one (signed zero, a
// denormal, an inexact sum) and a poisoned one whose channels hold NaN,
// -0.0 and ±inf. The cache refuses to insert poisoned entries, so the
// second goes straight through the journal interface. The literal holds
// the bytes of the byte-at-a-time encoder that bulk encoding replaced. The
// data signature names no table, so the set's epochs stay live on reopen.
TEST_F(PersistTest, WalBytesMatchGoldenEncoding) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::string sig = "T:;W:;G:g,s,";
  Schema schema;
  ASSERT_OK(schema.AddField({"g", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"s", DataType::kString}));
  Table keys(schema);
  keys.AppendRow({Value(int64_t{-3}), Value(std::string("b"))});
  keys.AppendRow({Value(std::numeric_limits<int64_t>::max()),
                  Value(std::string("a"))});
  keys.AppendRow({Value(int64_t{5}), Value(std::string("b"))});
  const StateCache::Entry clean{{-0.0, 4.9e-324, 0.1 + 0.2}, {1.0, -1.0, -0.0}};
  const StateCache::Entry poisoned{{kNaN, -0.0, kInf}, {-kInf, -0.0, kNaN}};

  std::string wal;
  {
    StateCache cache;
    ASSERT_OK_AND_ASSIGN(auto persist,
                         CachePersistence::Open(dir_, &catalog_, &cache));
    StateCache::GroupSetPtr set =
        cache.GetOrCreate(sig, keys, 3, CatalogEpochs{0, 7},
                          /*covered_rows=*/42);
    cache.InsertEntry(set.get(), "sum_pow|x|1", clean);
    persist->OnInsertEntry(sig, "logclass|x", poisoned);
    ASSERT_EQ(persist->wal_errors(), 0);
    ASSERT_OK_AND_ASSIGN(wal, Vfs::Default()->ReadFile(dir_ + "/cache.wal"));
  }
  static const char kHex[] =
      // file header
      "5355444657414c3202000000"
      // create set
      "78000000eec16a62020c000000543a3b573a3b473a672c732c00000000000000"
      "0007000000000000002a00000000000000030000000102000000010000006700"
      "0100000073020300000000000000fdffffffffffffffffffffffffffff7f0500"
      "0000000000000200000001000000620100000061000000000100000000000000"
      // insert clean entry
      "60000000a373a12d030c000000543a3b573a3b473a672c732c0b00000073756d"
      "5f706f777c787c31030000000000000000000000000000800100000000000000"
      "343333333333d33f0300000000000000000000000000f03f000000000000f0bf"
      "0000000000000080"
      // insert poisoned entry
      "5f000000af272e78030c000000543a3b573a3b473a672c732c0a0000006c6f67"
      "636c6173737c780300000000000000000000000000f87f000000000000008000"
      "0000000000f07f0300000000000000000000000000f0ff000000000000008000"
      "0000000000f87f";
  std::string hex;
  for (unsigned char c : wal) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  EXPECT_EQ(hex, kHex);

  // Recovery brings the set back bit for bit and quarantines the poisoned
  // entry.
  StateCache back;
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &back));
  EXPECT_EQ(persist->recovery_stats().sets_recovered, 1);
  EXPECT_EQ(persist->recovery_stats().entries_recovered, 1);
  EXPECT_EQ(persist->recovery_stats().entries_quarantined, 1);
  StateCache::GroupSetPtr set = back.Find(sig, {0, 7}, false).set;
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->num_groups, 3);
  EXPECT_EQ(set->covered_rows, 42);
  ASSERT_NE(set->group_keys, nullptr);
  ASSERT_EQ(set->group_keys->num_rows(), 3);
  EXPECT_EQ(set->group_keys->column(0).ints(), keys.column(0).ints());
  EXPECT_EQ(set->group_keys->column(1).string_codes(),
            keys.column(1).string_codes());
  EXPECT_EQ(set->group_keys->column(1).dictionary(),
            keys.column(1).dictionary());
  ASSERT_EQ(set->entries.count("sum_pow|x|1"), 1u);
  EXPECT_EQ(BitsOf(set->entries.at("sum_pow|x|1").main), BitsOf(clean.main));
  EXPECT_EQ(BitsOf(set->entries.at("sum_pow|x|1").sign), BitsOf(clean.sign));
}

TEST_F(PersistTest, EraseIsJournaledToo) {
  {
    StateCache cache;
    ASSERT_OK_AND_ASSIGN(auto persist,
                         CachePersistence::Open(dir_, &catalog_, &cache));
    Plant(&cache, "T:t,;W:;G:g,");
    cache.Clear();  // journaled erase
  }
  StateCache cache2;
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &cache2));
  EXPECT_EQ(cache2.num_group_sets(), 0);
  EXPECT_EQ(persist->recovery_stats().sets_recovered, 0);
}

TEST_F(PersistTest, WalGrowthTriggersSnapshotCompaction) {
  StateCache cache;
  CachePolicy policy;
  policy.wal_max_bytes = 2048;  // tiny: a few inserts force compaction
  cache.set_policy(policy);
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &cache));
  int64_t snapshots_before = persist->snapshots_written();
  for (int i = 0; i < 20; ++i) {
    Plant(&cache, "T:t,;W:;G:g" + std::to_string(i) + ",");
    // Journal callbacks only flag the need; the owner compacts between
    // queries once no cache locks are held (as SudafSession does).
    persist->MaybeCompact();
  }
  EXPECT_GT(persist->snapshots_written(), snapshots_before);
  // After every compaction the WAL restarts from a bare header, so its
  // size stays bounded by the threshold plus one record.
  EXPECT_LE(Vfs::Default()->FileSize(persist->wal_path()),
            policy.wal_max_bytes + 1024);

  // And the compacted store still recovers everything.
  persist.reset();
  StateCache cache2;
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       CachePersistence::Open(dir_, &catalog_, &cache2));
  EXPECT_EQ(cache2.num_group_sets(), 20);
  EXPECT_EQ(reopened->recovery_stats().total_dropped(), 0);
}

// Frames `payload` exactly as the persistence layer does: len:u32 crc:u32
// payload, crc = CRC32C(len || payload). Used to splice hand-crafted edge
// records into a live WAL.
std::string FrameTestRecord(const std::string& payload) {
  std::string rec(8, '\0');
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(rec.data(), &len, 4);
  uint32_t crc = Crc32c(rec.data(), 4);
  crc = Crc32c(payload.data(), payload.size(), crc);
  std::memcpy(rec.data() + 4, &crc, 4);
  return rec + payload;
}

TEST_F(PersistTest, WalLengthPrefixPastEofIsTornNotFatal) {
  {
    StateCache cache;
    ASSERT_OK_AND_ASSIGN(auto persist,
                         CachePersistence::Open(dir_, &catalog_, &cache));
    Plant(&cache, "T:t,;W:;G:a,");
  }
  // Append a header whose length prefix points far past EOF with only a
  // stub of payload behind it — the classic crash-mid-append artifact.
  std::string wal = dir_ + "/cache.wal";
  ASSERT_TRUE(Vfs::Default()->Exists(wal));
  std::string frame(8, '\0');
  uint32_t len = 1 << 20;
  std::memcpy(frame.data(), &len, 4);
  uint32_t crc = Crc32c(frame.data(), 4);
  std::memcpy(frame.data() + 4, &crc, 4);
  ASSERT_OK(Vfs::Default()->Append(wal, frame + "stub"));

  StateCache cache2;
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &cache2));
  EXPECT_EQ(persist->recovery_stats().records_dropped_torn, 1);
  EXPECT_EQ(persist->recovery_stats().sets_recovered, 1);
  EXPECT_EQ(persist->recovery_stats().entries_recovered, 2);
}

TEST_F(PersistTest, WalZeroLengthRecordIsDroppedIndividually) {
  {
    StateCache cache;
    ASSERT_OK_AND_ASSIGN(auto persist,
                         CachePersistence::Open(dir_, &catalog_, &cache));
    Plant(&cache, "T:t,;W:;G:a,");
    Plant(&cache, "T:t,;W:;G:b,");
  }
  // Splice a zero-length record — CRC-valid but with no payload, not even
  // a type byte — between the first record and the rest of the stream.
  std::string wal = dir_ + "/cache.wal";
  ASSERT_OK_AND_ASSIGN(std::string file, Vfs::Default()->ReadFile(wal));
  auto ranges = RecordRanges(file);
  ASSERT_GE(ranges.size(), 2u);
  file.insert(ranges[0].first + ranges[0].second, FrameTestRecord(""));
  ASSERT_OK(Vfs::Default()->WriteAtomic(wal, file));

  StateCache cache2;
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &cache2));
  // Dropped alone as malformed; every record after it still applied.
  EXPECT_EQ(persist->recovery_stats().records_dropped_checksum, 1);
  EXPECT_EQ(persist->recovery_stats().records_dropped_torn, 0);
  EXPECT_EQ(persist->recovery_stats().sets_recovered, 2);
  EXPECT_EQ(cache2.num_group_sets(), 2);
}

TEST_F(PersistTest, WalOversizeRecordIsDroppedIndividually) {
  {
    StateCache cache;
    CachePolicy policy;
    policy.wal_max_bytes = 1024;
    cache.set_policy(policy);
    ASSERT_OK_AND_ASSIGN(auto persist,
                         CachePersistence::Open(dir_, &catalog_, &cache));
    Plant(&cache, "T:t,;W:;G:a,");
    Plant(&cache, "T:t,;W:;G:b,");
  }
  // Splice an intact, CRC-valid record just past the scan bound (the
  // configured WAL limit, floored at 1 MiB): it cannot be legitimate, so
  // it must be dropped alone — never fatal, never treated as a torn tail.
  std::string wal = dir_ + "/cache.wal";
  ASSERT_OK_AND_ASSIGN(std::string file, Vfs::Default()->ReadFile(wal));
  auto ranges = RecordRanges(file);
  ASSERT_GE(ranges.size(), 2u);
  std::string huge((1 << 20) + 1, '\x5a');
  file.insert(ranges[0].first + ranges[0].second, FrameTestRecord(huge));
  ASSERT_OK(Vfs::Default()->WriteAtomic(wal, file));

  StateCache cache2;
  CachePolicy policy;
  policy.wal_max_bytes = 1024;
  cache2.set_policy(policy);
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &cache2));
  EXPECT_EQ(persist->recovery_stats().records_dropped_oversize, 1);
  EXPECT_EQ(persist->recovery_stats().records_dropped_torn, 0);
  EXPECT_EQ(persist->recovery_stats().records_dropped_checksum, 0);
  EXPECT_EQ(persist->recovery_stats().sets_recovered, 2);
  EXPECT_GT(persist->recovery_stats().total_dropped(), 0);
}

TEST_F(PersistTest, SaveFaultsLeaveThePublishedSnapshotIntact) {
  StateCache cache;
  ASSERT_OK_AND_ASSIGN(auto persist,
                       CachePersistence::Open(dir_, &catalog_, &cache));
  Plant(&cache, "T:t,;W:;G:g,");
  ASSERT_OK(persist->Save());
  ASSERT_OK_AND_ASSIGN(std::string published,
                       Vfs::Default()->ReadFile(persist->snapshot_path()));

  Plant(&cache, "T:t,;W:;G:h,");
  for (const char* site : {"cache:snapshot_write", "cache:snapshot_rename"}) {
    FailPoint::Activate(site, Status::Internal("crash"));
    EXPECT_FALSE(persist->Save().ok()) << site;
    FailPoint::DeactivateAll();
    // Atomic publish: the reader-visible snapshot never changes under a
    // mid-save crash, whichever window the crash hits.
    ASSERT_OK_AND_ASSIGN(std::string now,
                         Vfs::Default()->ReadFile(persist->snapshot_path()));
    EXPECT_EQ(now, published) << site;
  }
  // With the fault gone the very next save succeeds.
  ASSERT_OK(persist->Save());
}

// ---------------------------------------------------------------------------
// Kill-and-reopen crash property, end-to-end through SudafSession
// ---------------------------------------------------------------------------

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = testing_util::UniqueTempDir("sudaf_crash");
    std::filesystem::remove_all(base_);
    std::vector<int64_t> g(400);
    std::vector<double> x(400);
    for (int64_t i = 0; i < 400; ++i) {
      g[i] = i % 8;
      x[i] = static_cast<double>((i * 37) % 101) + 0.25;
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, x));
  }
  void TearDown() override {
    FailPoint::DeactivateAll();
    std::filesystem::remove_all(base_);
  }

  static const std::vector<std::string>& Queries() {
    static const std::vector<std::string> kQueries = {
        "SELECT g, sum(x), count(x) FROM t GROUP BY g ORDER BY g",
        "SELECT g, var(x) FROM t GROUP BY g ORDER BY g",
        "SELECT g, stddev(x), avg(x) FROM t GROUP BY g ORDER BY g",
    };
    return kQueries;
  }

  // Bit-exact digest of a result table: the recovery property is not
  // "approximately equal", it is "the same doubles".
  static std::string Fingerprint(const Table& t) {
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

  std::vector<std::string> RunAll(SudafSession* session) {
    std::vector<std::string> prints;
    for (const std::string& sql : Queries()) {
      auto result = session->Execute(sql, ExecMode::kSudafShare);
      EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      prints.push_back(result.ok() ? Fingerprint(**result) : "");
    }
    return prints;
  }

  // The property: whatever survived recovery is internally consistent —
  // checksum-valid (or it would have been dropped), epoch-live, and free
  // of poison.
  void ExpectConsistent(const StateCache& cache) {
    for (const auto& [sig, set] : cache.sets()) {
      EXPECT_EQ(set->epochs.rewrite,
                catalog_.TablesEpochs(TablesFromDataSignature(sig)).rewrite)
          << sig;
      for (const auto& [key, entry] : set->entries) {
        EXPECT_FALSE(EntryIsPoisoned(entry)) << sig << " / " << key;
      }
    }
  }

  Catalog catalog_;
  std::string base_;
};

TEST_F(CrashRecoveryTest, KillAndReopenAtEveryPersistenceSite) {
  // The reference answers come from a cold, persistence-free session
  // (persistence failpoints have no site to fire at here).
  SudafSession cold(&catalog_);
  std::vector<std::string> want = RunAll(&cold);

  // The CI crash shard additionally arms sites through SUDAF_FAILPOINTS
  // with varying skip counts; the property below must hold no matter
  // which extra persistence fault is live. Locally the variable is
  // absent and this arms nothing.
  auto env_armed = FailPoint::ActivateFromEnv();
  ASSERT_TRUE(env_armed.ok()) << env_armed.status().ToString();

  struct Scenario {
    const char* site;
    int skip;
    int count;
  };
  const std::vector<Scenario> scenarios = {
      // Torn WAL append: one torn record, early / late in the stream.
      {"cache:wal_append", 0, 1},
      {"cache:wal_append", 2, 1},
      {"cache:wal_append", 5, 1},
      // Every append torn — nothing but the compacted snapshot survives.
      {"cache:wal_append", 0, 1000000},
      // Crash during the snapshot tmp-file write / before the rename.
      {"cache:snapshot_write", 0, 1000000},
      {"cache:snapshot_rename", 0, 1000000},
      // Records rejected while replaying at reopen.
      {"cache:recover_record", 0, 1},
      {"cache:recover_record", 1, 2},
      {"cache:recover_record", 0, 1000000},
  };

  int n = 0;
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(std::string(s.site) + " skip=" + std::to_string(s.skip) +
                 " count=" + std::to_string(s.count));
    std::string dir = base_ + "/run" + std::to_string(n++);
    bool fault_at_reopen =
        std::string(s.site) == "cache:recover_record";

    {  // Session A: populate the durable cache, crashing per scenario.
      SudafSession a(&catalog_);
      if (!fault_at_reopen) {
        FailPoint::Activate(s.site, Status::Internal("simulated crash"),
                            s.skip, s.count);
      }
      ASSERT_OK(a.EnableCachePersistence(dir));
      RunAll(&a);
      // Ask for a compaction too, so the snapshot crash windows are
      // exercised even when the WAL never overflowed. A failed save is a
      // crash, not a query error.
      if (a.cache_persistence() != nullptr) {
        (void)a.cache_persistence()->Save();
      }
      FailPoint::DeactivateAll();
      // The session dies here with whatever made it to disk — the "kill".
    }

    // Session B: reopen. Recovery must never fail, whatever is on disk.
    SudafSession b(&catalog_);
    if (fault_at_reopen) {
      FailPoint::Activate(s.site, Status::Internal("simulated crash"),
                          s.skip, s.count);
    }
    ASSERT_OK(b.EnableCachePersistence(dir));
    FailPoint::DeactivateAll();
    ExpectConsistent(b.cache());

    // And the recovered cache — whole, partial, or empty — produces
    // bit-identical answers to the cold run.
    std::vector<std::string> got = RunAll(&b);
    for (size_t q = 0; q < want.size(); ++q) {
      EXPECT_EQ(got[q], want[q]) << "query " << q;
    }
  }
}

TEST_F(CrashRecoveryTest, CleanReopenServesStatesWithoutRescanning) {
  std::string dir = base_ + "/clean";
  {
    SudafSession a(&catalog_);
    ASSERT_OK(a.EnableCachePersistence(dir));
    RunAll(&a);
  }
  SudafSession b(&catalog_);
  ASSERT_OK(b.EnableCachePersistence(dir));
  EXPECT_EQ(b.cache_persistence()->recovery_stats().total_dropped(), 0);
  EXPECT_GT(b.cache().num_entries(), 0);

  // The recovered states are not just present — they serve the queries,
  // so the reopened session never touches the base table.
  auto result = b.Execute(Queries()[0], ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.states_from_cache, 0);
  EXPECT_FALSE(result->stats.scanned_base_data);
}

TEST_F(CrashRecoveryTest, EpochBumpBetweenSessionsDropsJoinSets) {
  // Satellite: multi-table signatures re-derive their epoch from *all*
  // covered tables at recovery. Build fact/dim, run a join in share mode,
  // kill, mutate only the dimension table, reopen: the join set must go.
  Schema fact_schema, dim_schema;
  ASSERT_OK(fact_schema.AddField({"fk", DataType::kInt64}));
  ASSERT_OK(fact_schema.AddField({"v", DataType::kFloat64}));
  ASSERT_OK(dim_schema.AddField({"dk", DataType::kInt64}));
  ASSERT_OK(dim_schema.AddField({"w", DataType::kFloat64}));
  auto fact = std::make_unique<Table>(std::move(fact_schema));
  auto dim = std::make_unique<Table>(std::move(dim_schema));
  for (int64_t i = 0; i < 30; ++i) {
    fact->column(0).AppendInt64(i % 3);
    fact->column(1).AppendFloat64(static_cast<double>(i) + 0.5);
  }
  for (int64_t k = 0; k < 3; ++k) {
    dim->column(0).AppendInt64(k);
    dim->column(1).AppendFloat64(static_cast<double>(k) * 10.0);
  }
  fact->FinishBulkAppend();
  dim->FinishBulkAppend();
  catalog_.PutTable("fact", std::move(fact));
  catalog_.PutTable("dim", std::move(dim));

  const std::string join_sql =
      "SELECT fk, sum(v) FROM fact, dim WHERE fk = dk "
      "GROUP BY fk ORDER BY fk";
  std::string dir = base_ + "/join";
  std::string want;
  {
    SudafSession a(&catalog_);
    ASSERT_OK(a.EnableCachePersistence(dir));
    auto result = a.Execute(join_sql, ExecMode::kSudafShare);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    want = Fingerprint(**result);
    ASSERT_GT(a.cache().num_entries(), 0);
  }

  // Replace only `dim`; the persisted join set covers both tables, so its
  // recomputed combined epoch no longer matches.
  auto dim2 = std::make_unique<Table>([] {
    Schema s;
    SUDAF_CHECK(s.AddField({"dk", DataType::kInt64}).ok());
    SUDAF_CHECK(s.AddField({"w", DataType::kFloat64}).ok());
    return s;
  }());
  for (int64_t k = 0; k < 3; ++k) {
    dim2->column(0).AppendInt64(k);
    dim2->column(1).AppendFloat64(static_cast<double>(k));
  }
  dim2->FinishBulkAppend();
  catalog_.PutTable("dim", std::move(dim2));

  SudafSession b(&catalog_);
  ASSERT_OK(b.EnableCachePersistence(dir));
  EXPECT_GE(b.cache_persistence()->recovery_stats().sets_dropped_epoch, 1);
  ExpectConsistent(b.cache());
  // The join recomputes from base data and still matches the cold answer
  // (the join result only reads fact values; dim only filters keys).
  auto result = b.Execute(join_sql, ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Fingerprint(**result), want);
  EXPECT_TRUE(result->stats.scanned_base_data);
}

// ---------------------------------------------------------------------------
// Byte budget: the invariant, eviction pressure, and budget rejects
// ---------------------------------------------------------------------------

TEST(CacheBudgetStressTest, ApproxBytesNeverExceedsBudgetAfterAnyInsert) {
  StateCache cache;
  CachePolicy policy;
  policy.max_bytes = 16 << 10;
  cache.set_policy(policy);
  auto keys = testing_util::MakeXyTable({0, 1, 2, 3}, {0, 0, 0, 0},
                                        {0, 0, 0, 0});
  std::mt19937 rng(20260806);  // deterministic
  std::uniform_int_distribution<int> sig_dist(0, 39);
  std::uniform_int_distribution<int> key_dist(0, 7);
  std::uniform_int_distribution<int> len_dist(1, 400);

  int64_t accepted = 0, rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string sig = "T:t,;W:q" + std::to_string(sig_dist(rng)) + ",;G:g,";
    StateCache::GroupSetPtr set = cache.GetOrCreate(sig, *keys, 4, CatalogEpochs{}, /*covered_rows=*/-1);
    ASSERT_NE(set, nullptr);
    ASSERT_LE(cache.ApproxBytes(), policy.max_bytes) << "after GetOrCreate";
    StateCache::Entry entry{std::vector<double>(len_dist(rng), 1.0), {}};
    std::string key = "state" + std::to_string(key_dist(rng));
    if (cache.InsertEntry(set.get(), key, entry)) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_FALSE(entry.main.empty());  // declined insert leaves it intact
    }
    // The invariant under test: the budget holds after EVERY insert, not
    // just eventually.
    ASSERT_LE(cache.ApproxBytes(), policy.max_bytes) << "insert " << i;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(cache.counters().evictions, 0);
  EXPECT_GT(cache.counters().bytes_evicted, 0);
}

class SessionBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<int64_t> g(200);
    std::vector<double> x(200);
    for (int64_t i = 0; i < 200; ++i) {
      g[i] = i % 4;
      x[i] = static_cast<double>(i % 10) + 1.0;
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, x));
  }

  Catalog catalog_;
};

TEST_F(SessionBudgetTest, EvictionsSurfaceInExecStats) {
  // Size the budget to hold exactly one query's group set: the second,
  // differently-signed query must evict the first.
  SudafSession probe(&catalog_);
  ASSERT_TRUE(probe.Execute("SELECT g, var(x) FROM t GROUP BY g",
                            ExecMode::kSudafShare)
                  .ok());
  int64_t one_set = probe.cache().ApproxBytes();
  ASSERT_GT(one_set, 0);

  SessionOptions opts;
  opts.cache_policy.max_bytes = one_set + one_set / 2;
  SudafSession session(&catalog_, opts);
  auto first = session.Execute("SELECT g, var(x) FROM t GROUP BY g",
                               ExecMode::kSudafShare);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.cache_evictions, 0);
  auto second = session.Execute("SELECT g, var(x) FROM t WHERE x > 2 GROUP BY g",
                                ExecMode::kSudafShare);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->stats.cache_evictions, 0);
  EXPECT_GT(second->stats.cache_bytes_evicted, 0);
  EXPECT_LE(session.cache().ApproxBytes(), opts.cache_policy.max_bytes);
}

TEST_F(SessionBudgetTest, BudgetRejectsKeepQueriesCorrect) {
  SudafSession probe(&catalog_);
  ASSERT_TRUE(probe.Execute("SELECT g, var(x) FROM t GROUP BY g",
                            ExecMode::kSudafShare)
                  .ok());
  int64_t full = probe.cache().ApproxBytes();

  // One byte short of the full footprint: the set fits, its last entry
  // does not. The query must still answer correctly from local state.
  SessionOptions opts;
  opts.cache_policy.max_bytes = full - 1;
  SudafSession session(&catalog_, opts);
  auto bounded = session.Execute("SELECT g, var(x) FROM t GROUP BY g ORDER BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_GT(bounded->stats.cache_budget_rejects, 0);
  EXPECT_LE(session.cache().ApproxBytes(), opts.cache_policy.max_bytes);

  auto engine = session.Execute("SELECT g, var(x) FROM t GROUP BY g ORDER BY g",
                                ExecMode::kEngine);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ((*bounded)->num_rows(), (*engine)->num_rows());
  for (int64_t r = 0; r < (*engine)->num_rows(); ++r) {
    testing_util::ExpectClose((*engine)->column(1).GetFloat64(r),
                              (*bounded)->column(1).GetFloat64(r));
  }
}

TEST_F(SessionBudgetTest, ShrinkingThePolicyEvictsImmediately) {
  SudafSession session(&catalog_);
  ASSERT_TRUE(session.Execute("SELECT g, var(x) FROM t GROUP BY g",
                              ExecMode::kSudafShare)
                  .ok());
  ASSERT_TRUE(session.Execute("SELECT g, var(x) FROM t WHERE x > 2 GROUP BY g",
                              ExecMode::kSudafShare)
                  .ok());
  int64_t unbounded = session.cache().ApproxBytes();
  ASSERT_GT(unbounded, 0);

  CachePolicy policy = session.options().cache_policy;
  policy.max_bytes = unbounded / 2;
  session.set_cache_policy(policy);
  EXPECT_LE(session.cache().ApproxBytes(), policy.max_bytes);
  EXPECT_GT(session.cache().counters().evictions, 0);
}

}  // namespace
}  // namespace sudaf
