// Tests for shared-scan batch execution (docs/service.md, "Shared-scan
// batching"): SudafSession::ExecuteBatch fusing same-signature queries
// into one pass over a union state DAG, the QueryService batching window
// behind Submit()/QueryTicket, bit-identity of batched answers to serial
// one-at-a-time execution across batch windows and thread counts, the
// window-drop rules for cancelled/expired tickets, and the
// `coalesced + solo == admitted` counter identity.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/query_guard.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "sudaf/sudaf.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// Overlapping-state queries over one signature (same table, no filter,
// same grouping): var + kurtosis + skewness + avg all reduce to the power
// sums count, Σx, Σx², Σx³, Σx⁴ — the Theorem 4.1 overlap the union DAG
// must compute exactly once.
std::vector<std::string> OverlappingQueries() {
  return {
      "SELECT g, avg(x), var(x) FROM t GROUP BY g",
      "SELECT g, kurtosis(x) FROM t GROUP BY g",
      "SELECT g, skewness(x), sum(x) FROM t GROUP BY g",
      "SELECT g, var(x), count(x) FROM t GROUP BY g",
      "SELECT g, stddev(x), sum(x*y) FROM t GROUP BY g",
  };
}

// Bit-exact digest of a result table.
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

class SharedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<int64_t> g;
    std::vector<double> x;
    std::vector<double> y;
    Rng rng(4242);
    for (int i = 0; i < 500; ++i) {
      g.push_back(static_cast<int64_t>(rng.NextBelow(7)));
      x.push_back(rng.NextDoubleIn(0.5, 9.5));
      y.push_back(rng.NextDoubleIn(-2.0, 2.0));
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
  }

  // Serial one-at-a-time reference: one cold session executes the queries
  // in order (cache sharing between them is part of the contract being
  // mirrored — batched answers must match it bitwise).
  std::vector<std::string> SerialReference(const std::vector<std::string>& qs,
                                           ExecMode mode) {
    SudafSession ref(&catalog_);
    std::vector<std::string> want;
    for (const std::string& sql : qs) {
      auto r = ref.Execute(sql, mode);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      want.push_back(r.ok() ? Fingerprint(**r) : "");
    }
    return want;
  }

  Catalog catalog_;
};

// ---------------------------------------------------------------------------
// SudafSession::ExecuteBatch
// ---------------------------------------------------------------------------

TEST_F(SharedScanTest, BatchedAnswersMatchSerialAndDedupStates) {
  const std::vector<std::string> queries = OverlappingQueries();
  const std::vector<std::string> want =
      SerialReference(queries, ExecMode::kSudafShare);

  SudafSession session(&catalog_);
  BatchExecStats bstats;
  std::vector<Result<QueryResult>> results =
      session.ExecuteBatch(queries, ExecMode::kSudafShare, &bstats);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << queries[i] << ": "
                                 << results[i].status().ToString();
    EXPECT_EQ(Fingerprint(**results[i]), want[i])
        << "batched answer diverges for: " << queries[i];
    EXPECT_EQ(results[i]->stats.batch_size,
              static_cast<int>(queries.size()));
  }

  // One signature → one group, one scan; the other four scans are saved.
  EXPECT_EQ(bstats.queries, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(bstats.groups_shared, 1);
  EXPECT_EQ(bstats.queries_coalesced, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(bstats.queries_solo, 0);
  EXPECT_EQ(bstats.scan_passes, 1);
  EXPECT_EQ(bstats.scan_passes_saved,
            static_cast<int64_t>(queries.size()) - 1);
  // Theorem 4.1 overlap: the five queries request many states but the
  // union DAG computes the shared power sums once.
  EXPECT_GT(bstats.states_requested, 0);
  EXPECT_GT(bstats.states_deduped, 0);
}

TEST_F(SharedScanTest, MixedSignaturesSplitIntoGroupsAndSolo) {
  std::vector<std::string> queries = {
      "SELECT g, avg(x) FROM t GROUP BY g",            // group A
      "SELECT g, sum(y) FROM t WHERE x > 3.0 GROUP BY g",  // unique → solo
      "SELECT g, var(x) FROM t GROUP BY g",            // group A
  };
  const std::vector<std::string> want =
      SerialReference(queries, ExecMode::kSudafShare);

  SudafSession session(&catalog_);
  BatchExecStats bstats;
  auto results = session.ExecuteBatch(queries, ExecMode::kSudafShare, &bstats);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(Fingerprint(**results[i]), want[i]) << queries[i];
  }
  EXPECT_EQ(bstats.groups_shared, 1);
  EXPECT_EQ(bstats.queries_coalesced, 2);
  EXPECT_EQ(bstats.queries_solo, 1);
  // scan_passes counts only fused group passes; the solo query's scan is
  // accounted in its own per-query stats.
  EXPECT_EQ(bstats.scan_passes, 1);
  EXPECT_EQ(bstats.scan_passes_saved, 1);
}

TEST_F(SharedScanTest, NoShareAndEngineModesStayBitIdentical) {
  const std::vector<std::string> queries = OverlappingQueries();
  for (ExecMode mode : {ExecMode::kSudafNoShare, ExecMode::kEngine}) {
    const std::vector<std::string> want = SerialReference(queries, mode);
    SudafSession session(&catalog_);
    BatchExecStats bstats;
    auto results = session.ExecuteBatch(queries, mode, &bstats);
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(Fingerprint(**results[i]), want[i])
          << "mode " << static_cast<int>(mode) << ": " << queries[i];
    }
    if (mode == ExecMode::kEngine) {
      // The engine path has no state DAG to share: everything runs solo.
      EXPECT_EQ(bstats.queries_coalesced, 0);
      EXPECT_EQ(bstats.queries_solo,
                static_cast<int64_t>(queries.size()));
    } else {
      // No-share mode still fuses the scan (direct states, no cache).
      EXPECT_EQ(bstats.queries_coalesced,
                static_cast<int64_t>(queries.size()));
      EXPECT_EQ(bstats.scan_passes, 1);
    }
  }
}

TEST_F(SharedScanTest, PerItemFailuresDoNotPoisonTheGroup) {
  std::vector<std::string> queries = {
      "SELECT g, avg(x) FROM t GROUP BY g",
      "SELECT g, nope(x) FROM t GROUP BY g",  // unknown aggregate
      "SELECT g, var(x) FROM t GROUP BY g",
  };
  const auto want = SerialReference({queries[0], queries[2]},
                                    ExecMode::kSudafShare);
  SudafSession session(&catalog_);
  auto results = session.ExecuteBatch(queries, ExecMode::kSudafShare);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_FALSE(results[1].ok());
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  EXPECT_EQ(Fingerprint(**results[0]), want[0]);
  EXPECT_EQ(Fingerprint(**results[2]), want[1]);
}

// ---------------------------------------------------------------------------
// Service-level bit-identity matrix: batch window {off, 1, 8} × fused
// worker threads {1, 8}. Tickets are submitted first (they land in one
// window), then awaited in order — the first Wait() claims and runs the
// whole window, so group formation is deterministic.
// ---------------------------------------------------------------------------

TEST_F(SharedScanTest, WindowAndThreadMatrixIsBitIdentical) {
  const std::vector<std::string> queries = OverlappingQueries();
  const std::vector<std::string> want =
      SerialReference(queries, ExecMode::kSudafShare);

  struct WindowConfig {
    const char* name;
    double window_ms;
    int max_queries;
  };
  const WindowConfig windows[] = {
      {"off", 0.0, 8},      // batching disabled: every ticket runs solo
      {"max1", 50.0, 1},    // window open but size-1: solo as well
      {"max8", 50.0, 8},    // real batching: one group per signature
  };
  for (int threads : {1, 8}) {
    ExecOptions exec;
    exec.parallel = threads > 1;
    exec.num_threads = threads;
    for (const WindowConfig& w : windows) {
      SudafSession session(&catalog_, SessionOptions{}.set_exec(exec));
      ServiceOptions opts;
      opts.batch_window_ms = w.window_ms;
      opts.batch_max_queries = w.max_queries;
      QueryService service(&session, opts);

      std::vector<QueryTicket> tickets;
      for (const std::string& sql : queries) {
        tickets.push_back(service.Submit(sql, ExecMode::kSudafShare));
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        auto r = tickets[i].Wait();
        ASSERT_TRUE(r.ok()) << "threads=" << threads << " window=" << w.name
                            << ": " << r.status().ToString();
        EXPECT_EQ(Fingerprint(**r), want[i])
            << "threads=" << threads << " window=" << w.name << ": "
            << queries[i];
      }

      MetricsSnapshot snap = service.metrics().Snapshot();
      const int64_t n = static_cast<int64_t>(queries.size());
      // The invariant that makes the counters trustworthy: every admitted
      // request was either coalesced into a group or ran solo.
      EXPECT_EQ(snap.counter("sudaf.batch.coalesced") +
                    snap.counter("sudaf.batch.solo"),
                snap.counter("sudaf.service.admitted"));
      if (w.window_ms > 0 && w.max_queries > 1) {
        // All five tickets share one signature and one window: one pass.
        EXPECT_EQ(snap.counter("sudaf.batch.coalesced"), n);
        EXPECT_EQ(snap.counter("sudaf.batch.scan_passes"), 1);
        EXPECT_EQ(snap.counter("sudaf.batch.scan_passes_saved"), n - 1);
        EXPECT_GT(snap.counter("sudaf.batch.states_deduped"), 0);
      } else {
        EXPECT_EQ(snap.counter("sudaf.batch.coalesced"), 0);
        EXPECT_EQ(snap.counter("sudaf.batch.solo"), n);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QueryTicket semantics
// ---------------------------------------------------------------------------

TEST_F(SharedScanTest, TicketWaitConsumesOnceAndTryGetNeverDrives) {
  SudafSession session(&catalog_);
  QueryService service(&session);
  QueryTicket ticket =
      service.Submit("SELECT g, avg(x) FROM t GROUP BY g",
                     ExecMode::kSudafShare);
  ASSERT_TRUE(ticket.valid());

  // TryGet before anyone drove the request: not finished, returns false.
  Result<QueryResult> peek{Status::Internal("unset")};
  EXPECT_FALSE(ticket.TryGet(&peek));

  auto r = ticket.Wait();
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The result was consumed by Wait(): both re-reads report that.
  EXPECT_FALSE(ticket.TryGet(&peek));
  auto again = ticket.Wait();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);

  // A default-constructed ticket is inert.
  QueryTicket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.TryGet(&peek));
  EXPECT_FALSE(empty.Wait().ok());
}

// Regression (satellite): tickets cancelled or past their deadline while
// the window is open are dropped from the group BEFORE the pass forms —
// they never occupy a state slot, and the live members still coalesce.
TEST_F(SharedScanTest, CancelledAndExpiredTicketsAreDroppedFromTheWindow) {
  SudafSession session(&catalog_);
  ServiceOptions opts;
  opts.batch_window_ms = 60.0;
  opts.batch_max_queries = 8;
  QueryService service(&session, opts);

  const std::string sql = "SELECT g, avg(x) FROM t GROUP BY g";
  QueryGuard expired;
  expired.ArmDeadline(0.0);

  QueryTicket a = service.Submit(sql, ExecMode::kSudafShare);
  QueryTicket b = service.Submit(sql, ExecMode::kSudafShare);
  QueryTicket c = service.Submit("SELECT g, var(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ServiceRequest dead;
  dead.sql = sql;
  dead.guard = &expired;
  QueryTicket d = service.Submit(dead);

  b.Cancel();

  // b's own waiter observes the cancellation first (self-drop from the
  // window); then a's waiter claims the window, prunes d, and fuses {a, c}.
  auto rb = b.Wait();
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kCancelled);

  auto ra = a.Wait();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rc = c.Wait();
  ASSERT_TRUE(rc.ok()) << rc.status().ToString();
  auto rd = d.Wait();
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.status().code(), StatusCode::kDeadlineExceeded);

  MetricsSnapshot snap = service.metrics().Snapshot();
  // Only the two live members formed the group; the drops never admitted.
  EXPECT_EQ(snap.counter("sudaf.batch.coalesced"), 2);
  EXPECT_EQ(snap.counter("sudaf.batch.solo"), 0);
  EXPECT_EQ(snap.counter("sudaf.service.admitted"), 2);
  EXPECT_EQ(snap.counter("sudaf.service.queue_cancelled"), 1);
  EXPECT_EQ(snap.counter("sudaf.service.queue_timeouts"), 1);
  EXPECT_EQ(snap.counter("sudaf.service.ok"), 2);
  EXPECT_EQ(snap.counter("sudaf.service.failed"), 2);
  // Dropped tickets retried nothing: cancellation and deadlines are final.
  EXPECT_EQ(snap.counter("sudaf.service.retries"), 0);
}

// Concurrent waiters (the real deployment shape): N client threads each
// submit and wait their own ticket. However the windows land, every
// answer matches the serial reference and the counters reconcile.
TEST_F(SharedScanTest, ConcurrentClientsReconcileAndMatchSerial) {
  const std::vector<std::string> queries = OverlappingQueries();
  const std::vector<std::string> want =
      SerialReference(queries, ExecMode::kSudafShare);

  SudafSession session(&catalog_);
  ServiceOptions opts;
  opts.batch_window_ms = 5.0;
  opts.batch_max_queries = 8;
  QueryService service(&session, opts);

  constexpr int kClients = 8;
  constexpr int kPerClient = 5;
  std::vector<std::thread> clients;
  std::vector<Status> failures(kClients, Status::OK());
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        size_t q = (c + i) % queries.size();
        auto r = service.Execute(queries[q], ExecMode::kSudafShare);
        if (!r.ok()) {
          failures[c] = r.status();
          return;
        }
        if (Fingerprint(**r) != want[q]) {
          failures[c] = Status::Internal("answer diverged: " + queries[q]);
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].ok()) << "client " << c << ": "
                                  << failures[c].ToString();
  }

  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.ok"), kClients * kPerClient);
  EXPECT_EQ(snap.counter("sudaf.batch.coalesced") +
                snap.counter("sudaf.batch.solo"),
            snap.counter("sudaf.service.admitted"));
  EXPECT_EQ(snap.gauge("sudaf.service.inflight"), 0);
}

}  // namespace
}  // namespace sudaf
