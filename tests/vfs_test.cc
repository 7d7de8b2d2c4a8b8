// Tests for the Vfs layer (docs/robustness.md, "Durability contract"):
// the POSIX backend's typed error taxonomy and atomic-write hygiene, the
// FaultVfs disk model (sync-only durability, lying fsyncs, rename
// rollback, short writes, ENOSPC), the exhaustive power-cut recovery
// property over every Vfs mutation site, and the ENOSPC → persistence
// breaker path through QueryService.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/vfs.h"
#include "common/vfs_fault.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "sudaf/service.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// ---------------------------------------------------------------------------
// ParentDirOf
// ---------------------------------------------------------------------------

TEST(ParentDirOfTest, CoversTheCases) {
  EXPECT_EQ(ParentDirOf("/a/b/c"), "/a/b");
  EXPECT_EQ(ParentDirOf("/f"), "/");
  EXPECT_EQ(ParentDirOf("rel/f"), "rel");
  EXPECT_EQ(ParentDirOf("plain"), ".");
}

// ---------------------------------------------------------------------------
// POSIX backend: taxonomy, errno detail, atomic-write hygiene
// ---------------------------------------------------------------------------

class PosixVfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::UniqueTempDir("sudaf_vfs");
    std::filesystem::remove_all(dir_);
    ASSERT_OK(Vfs::Default()->CreateDirs(dir_));
  }
  void TearDown() override {
    FailPoint::DeactivateAll();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(PosixVfsTest, InjectedFaultsSurfaceAsTheSitesNaturalType) {
  Vfs* vfs = Vfs::Default();
  struct Case {
    const char* site;
    StatusCode code;
  };
  // Whatever code the injector used, the caller sees the typed taxonomy.
  for (const Case& c : {Case{"vfs:nospace", StatusCode::kNoSpace},
                        Case{"vfs:write", StatusCode::kIoError},
                        Case{"vfs:fsync", StatusCode::kFsyncFailed},
                        Case{"vfs:dirsync", StatusCode::kFsyncFailed},
                        Case{"vfs:rename", StatusCode::kIoError},
                        Case{"vfs:open", StatusCode::kIoError}}) {
    FailPoint::Activate(c.site, Status::Internal("injected"), 0, 1000000);
    Status st = vfs->WriteAtomic(dir_ + "/f", "payload");
    FailPoint::DeactivateAll();
    ASSERT_FALSE(st.ok()) << c.site;
    EXPECT_EQ(st.code(), c.code) << c.site << ": " << st.ToString();
  }
}

TEST_F(PosixVfsTest, RealErrorsCarryErrnoDetail) {
  // Opening inside a directory that does not exist fails with a message
  // naming the operation, the path, strerror and the errno number.
  Status st = Vfs::Default()->WriteAtomic(dir_ + "/no/such/dir/f", "x");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("errno"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("/no/such/dir/f"), std::string::npos)
      << st.ToString();

  auto missing = Vfs::Default()->ReadFile(dir_ + "/absent");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(PosixVfsTest, FailedAtomicWriteLeavesNoTmpAndKeepsOldContent) {
  Vfs* vfs = Vfs::Default();
  std::string path = dir_ + "/f";
  ASSERT_OK(vfs->WriteAtomic(path, "v1"));
  // Fail at every pre-publish window of the tmp-write protocol; the
  // published file must keep its old content and no *.tmp may linger (the
  // satellite fix: WriteFileAtomic used to leak `path + ".tmp"` on
  // failure).
  for (const char* site :
       {"vfs:open", "vfs:write", "vfs:fsync", "vfs:rename"}) {
    FailPoint::Activate(site, Status::Internal("injected"), 0, 1000000);
    Status st = vfs->WriteAtomic(path, "v2");
    FailPoint::DeactivateAll();
    ASSERT_FALSE(st.ok()) << site;
    EXPECT_FALSE(vfs->Exists(path + ".tmp")) << site;
    ASSERT_OK_AND_ASSIGN(std::string back, vfs->ReadFile(path));
    EXPECT_EQ(back, "v1") << site;
  }
  // The dirsync window sits AFTER the rename: the new content is already
  // published (durability merely unconfirmed), and still no tmp lingers.
  FailPoint::Activate("vfs:dirsync", Status::Internal("injected"), 0,
                      1000000);
  Status st = vfs->WriteAtomic(path, "v2");
  FailPoint::DeactivateAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFsyncFailed);
  EXPECT_FALSE(vfs->Exists(path + ".tmp"));
  ASSERT_OK_AND_ASSIGN(std::string back, vfs->ReadFile(path));
  EXPECT_EQ(back, "v2");
  ASSERT_OK(vfs->WriteAtomic(path, "v3"));
  ASSERT_OK_AND_ASSIGN(back, vfs->ReadFile(path));
  EXPECT_EQ(back, "v3");
}

TEST_F(PosixVfsTest, AppendReportsPartialWritesAsErrors) {
  Vfs* vfs = Vfs::Default();
  std::string path = dir_ + "/wal";
  ASSERT_OK(vfs->Append(path, "abc"));
  FailPoint::Activate("vfs:write", Status::Internal("injected"));
  Status st = vfs->Append(path, "def");
  FailPoint::DeactivateAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The next append works and the stream stays byte-exact.
  ASSERT_OK(vfs->Append(path, "ghi"));
  ASSERT_OK_AND_ASSIGN(std::string back, vfs->ReadFile(path));
  EXPECT_EQ(back.substr(0, 3), "abc");
  EXPECT_EQ(back.substr(back.size() - 3), "ghi");
}

TEST_F(PosixVfsTest, ListDirIsSortedPlainFiles) {
  Vfs* vfs = Vfs::Default();
  ASSERT_OK(vfs->WriteAtomic(dir_ + "/b", "1"));
  ASSERT_OK(vfs->WriteAtomic(dir_ + "/a", "2"));
  ASSERT_OK(vfs->CreateDirs(dir_ + "/subdir"));
  std::vector<std::string> names = vfs->ListDir(dir_);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(vfs->ListDir(dir_ + "/absent").empty());
}

// ---------------------------------------------------------------------------
// FaultVfs disk model
// ---------------------------------------------------------------------------

class FaultVfsTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoint::DeactivateAll(); }
};

TEST_F(FaultVfsTest, OnlySyncedBytesSurviveAPowerCut) {
  FaultVfs vfs;
  ASSERT_OK(vfs.CreateDirs("d"));
  // The durable composite (write + fsync + dirsync-on-create) survives.
  ASSERT_OK(vfs.Append("d/durable", "kept"));
  // A raw write without Sync does not.
  bool created = false;
  ASSERT_OK_AND_ASSIGN(auto f, vfs.OpenAppend("d/volatile", &created));
  EXPECT_TRUE(created);
  ASSERT_OK(f->Write("lost"));
  ASSERT_OK(f->Close());

  vfs.CutPower();
  EXPECT_TRUE(vfs.powered_off());
  EXPECT_FALSE(vfs.ReadFile("d/durable").ok());  // disk is off
  vfs.Reboot();

  ASSERT_OK_AND_ASSIGN(std::string back, vfs.ReadFile("d/durable"));
  EXPECT_EQ(back, "kept");
  EXPECT_FALSE(vfs.Exists("d/volatile"));
  EXPECT_EQ(vfs.power_cuts(), 1);
}

TEST_F(FaultVfsTest, UnsyncedTailFractionModelsTornWrites) {
  FaultVfs::Options opts;
  opts.unsynced_tail_fraction = 0.5;
  FaultVfs vfs(opts);
  ASSERT_OK(vfs.CreateDirs("d"));
  ASSERT_OK(vfs.Append("d/f", "0123"));  // durable prefix
  bool created = false;
  ASSERT_OK_AND_ASSIGN(auto f, vfs.OpenAppend("d/f", &created));
  ASSERT_OK(f->Write("abcdefgh"));  // un-synced tail of 8
  ASSERT_OK(f->Close());

  vfs.CutPower();
  vfs.Reboot();
  ASSERT_OK_AND_ASSIGN(std::string back, vfs.ReadFile("d/f"));
  // The durable prefix is intact; half the dirty tail leaked to disk —
  // exactly the kernel-wrote-back-some-pages crash a WAL must tolerate.
  EXPECT_EQ(back, "0123abcd");
}

TEST_F(FaultVfsTest, LyingFsyncReportsOkWithoutDurability) {
  FaultVfs vfs;
  ASSERT_OK(vfs.CreateDirs("d"));
  FailPoint::Activate("vfs:fsync_lie", Status::Internal("lie"), 0, 1000000);
  ASSERT_OK(vfs.Append("d/f", "gone"));  // reports success!
  FailPoint::DeactivateAll();
  ASSERT_OK_AND_ASSIGN(std::string live, vfs.ReadFile("d/f"));
  EXPECT_EQ(live, "gone");  // visible while powered
  vfs.CutPower();
  vfs.Reboot();
  // The dirsync made the *name* durable, but the lying fsync never made
  // the *content* durable: the file survives empty — the classic
  // lost-write a lying fsync produces on real hardware.
  EXPECT_TRUE(vfs.Exists("d/f"));
  ASSERT_OK_AND_ASSIGN(std::string back, vfs.ReadFile("d/f"));
  EXPECT_EQ(back, "");
}

TEST_F(FaultVfsTest, RenameRollsBackOnPowerCutWithoutDirsync) {
  FaultVfs vfs;
  ASSERT_OK(vfs.CreateDirs("d"));
  ASSERT_OK(vfs.Append("d/old", "content"));
  ASSERT_OK(vfs.Rename("d/old", "d/new"));
  EXPECT_FALSE(vfs.Exists("d/old"));
  EXPECT_TRUE(vfs.Exists("d/new"));

  vfs.CutPower();
  vfs.Reboot();
  // The rename was never dirsynced: the old name, old content, reappears.
  EXPECT_TRUE(vfs.Exists("d/old"));
  EXPECT_FALSE(vfs.Exists("d/new"));

  ASSERT_OK(vfs.Rename("d/old", "d/new"));
  ASSERT_OK(vfs.SyncDir("d"));
  vfs.CutPower();
  vfs.Reboot();
  EXPECT_FALSE(vfs.Exists("d/old"));
  ASSERT_OK_AND_ASSIGN(std::string back, vfs.ReadFile("d/new"));
  EXPECT_EQ(back, "content");
}

TEST_F(FaultVfsTest, ShortWriteLandsHalfThenErrors) {
  FaultVfs vfs;
  ASSERT_OK(vfs.CreateDirs("d"));
  bool created = false;
  ASSERT_OK_AND_ASSIGN(auto f, vfs.OpenAppend("d/f", &created));
  FailPoint::Activate("vfs:short_write", Status::Internal("short"));
  Status st = f->Write("abcdefgh");
  FailPoint::DeactivateAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(vfs.FileSize("d/f"), 4);  // half the buffer reached the file
}

TEST_F(FaultVfsTest, NoSpaceIsTyped) {
  FaultVfs vfs;
  ASSERT_OK(vfs.CreateDirs("d"));
  FailPoint::Activate("vfs:nospace", Status::Internal("full"), 0, 1000000);
  Status st = vfs.Append("d/f", "x");
  FailPoint::DeactivateAll();
  EXPECT_EQ(st.code(), StatusCode::kNoSpace);
}

TEST_F(FaultVfsTest, WriteAtomicIsAllOrNothingAcrossPowerCuts) {
  // With dirsync honored, WriteAtomic's contract holds on the fault disk
  // exactly as on POSIX: after OK the new bytes survive a cut.
  FaultVfs vfs;
  ASSERT_OK(vfs.CreateDirs("d"));
  ASSERT_OK(vfs.WriteAtomic("d/f", "published"));
  vfs.CutPower();
  vfs.Reboot();
  ASSERT_OK_AND_ASSIGN(std::string back, vfs.ReadFile("d/f"));
  EXPECT_EQ(back, "published");
  EXPECT_FALSE(vfs.Exists("d/f.tmp"));
}

// ---------------------------------------------------------------------------
// The recovery property: power-cut at EVERY Vfs mutation site
// ---------------------------------------------------------------------------

class PowerCutRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<int64_t> g(120);
    std::vector<double> x(120);
    for (int64_t i = 0; i < 120; ++i) {
      g[i] = i % 5;
      x[i] = static_cast<double>((i * 31) % 53) + 0.125;
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, x));
  }
  void TearDown() override { FailPoint::DeactivateAll(); }

  static const std::vector<std::string>& Queries() {
    static const std::vector<std::string> kQueries = {
        "SELECT g, sum(x), count(x) FROM t GROUP BY g ORDER BY g",
        "SELECT g, var(x), avg(x) FROM t GROUP BY g ORDER BY g",
    };
    return kQueries;
  }

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

  Catalog catalog_;
};

TEST_F(PowerCutRecoveryTest, BitIdenticalAtEveryVfsCallSite) {
  // Ground truth from a cold, persistence-free session.
  SudafSession cold(&catalog_);
  std::vector<std::string> want = RunAll(&cold);

  // Count the Vfs mutations of one clean persistent run; that count is the
  // index space of the power cut.
  FaultVfs clean_vfs;
  {
    SessionOptions opts;
    opts.set_vfs(&clean_vfs);
    SudafSession s(&catalog_, opts);
    ASSERT_OK(s.EnableCachePersistence("store"));
    std::vector<std::string> got = RunAll(&s);
    for (size_t q = 0; q < want.size(); ++q) EXPECT_EQ(got[q], want[q]);
  }
  const int64_t mutations = clean_vfs.mutation_calls();
  ASSERT_GT(mutations, 0);

  for (int64_t k = 0; k < mutations; ++k) {
    SCOPED_TRACE("power cut at mutation " + std::to_string(k));
    // Vary what the dying disk leaves behind: strict sync-only, torn
    // tails, full dirty write-back; namespace rollback vs survival.
    FaultVfs::Options fopts;
    fopts.unsynced_tail_fraction = 0.5 * static_cast<double>(k % 3);
    fopts.volatile_metadata_survives = (k % 2) == 1;
    FaultVfs vfs(fopts);
    FailPoint::Activate("vfs:power_cut", Status::Internal("power cut"),
                        static_cast<int>(k), 1);
    {
      SessionOptions opts;
      opts.set_vfs(&vfs);
      SudafSession a(&catalog_, opts);
      // The cut can land inside the enable itself; that is allowed to
      // fail — the session then simply runs memory-only.
      (void)a.EnableCachePersistence("store");
      // Queries NEVER fail: WAL errors after the cut are absorbed into
      // wal_errors, and the answers stay bit-identical.
      std::vector<std::string> during = RunAll(&a);
      for (size_t q = 0; q < want.size(); ++q) {
        EXPECT_EQ(during[q], want[q]) << "query " << q << " during outage";
      }
    }
    FailPoint::DeactivateAll();
    ASSERT_EQ(vfs.power_cuts(), 1);
    vfs.Reboot();

    // Restart: attaching whatever the cut left behind must succeed, and
    // the recovered cache must answer bit-identically to the cold run.
    SessionOptions opts;
    opts.set_vfs(&vfs);
    SudafSession b(&catalog_, opts);
    ASSERT_OK(b.EnableCachePersistence("store"));
    std::vector<std::string> got = RunAll(&b);
    for (size_t q = 0; q < want.size(); ++q) {
      EXPECT_EQ(got[q], want[q]) << "query " << q << " after recovery";
    }
  }
}

// ---------------------------------------------------------------------------
// ENOSPC mid-WAL-append → breaker degrades to memory-only, zero failures
// ---------------------------------------------------------------------------

TEST(VfsBreakerTest, NoSpaceDegradesToMemoryOnlyWithZeroFailedQueries) {
  Catalog catalog;
  std::vector<int64_t> g(100);
  std::vector<double> x(100);
  for (int64_t i = 0; i < 100; ++i) {
    g[i] = i % 4;
    x[i] = static_cast<double>(i % 11) + 0.5;
  }
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, x));

  std::string dir = testing_util::UniqueTempDir("sudaf_vfs_breaker");
  std::filesystem::remove_all(dir);
  SudafSession session(&catalog);
  ASSERT_OK(session.EnableCachePersistence(dir));

  ServiceOptions sopts;
  sopts.max_concurrency = 1;
  sopts.breaker.open_after_errors = 2;
  sopts.breaker.half_open_after = 3;
  QueryService service(&session, sopts);

  // The disk "fills up": every WAL append hits ENOSPC from here on.
  FailPoint::Activate("vfs:nospace", Status::Internal("disk full"), 0,
                      1000000);
  for (int i = 0; i < 6; ++i) {
    // Distinct predicates force fresh cache inserts → WAL appends → errors.
    auto result = service.Execute(
        "SELECT g, sum(x) FROM t WHERE x > " + std::to_string(i) +
            " GROUP BY g ORDER BY g",
        ExecMode::kSudafShare);
    ASSERT_TRUE(result.ok()) << "query " << i << ": "
                             << result.status().ToString();
  }
  // The breaker opened and the store is suspended: memory-only mode.
  EXPECT_EQ(service.breaker_state(), QueryService::BreakerState::kOpen);
  EXPECT_TRUE(session.cache_persistence_suspended());

  // Queries keep succeeding while open, flagged as degraded.
  auto degraded = service.Execute("SELECT g, count(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->stats.degraded_cache_memory_only);

  // Space returns; the half-open probe republishes and closes the breaker.
  FailPoint::DeactivateAll();
  for (int i = 0; i < 8 &&
                  service.breaker_state() != QueryService::BreakerState::kClosed;
       ++i) {
    auto result = service.Execute("SELECT g, avg(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(service.breaker_state(), QueryService::BreakerState::kClosed);
  EXPECT_FALSE(session.cache_persistence_suspended());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sudaf
