#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "bench_support/workload.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/vfs.h"
#include "datagen/milan_like.h"

namespace perfbench {

using sudaf::Catalog;
using sudaf::ExecMode;
using sudaf::NowMs;
using sudaf::QueryResult;
using sudaf::Result;
using sudaf::SessionOptions;
using sudaf::SudafSession;
using sudaf::Table;

namespace {

constexpr const char* kMilan = "milan_data";

std::unique_ptr<Table> MilanTable(
    int64_t rows, uint64_t seed,
    int squares = sudaf::MilanOptions().num_squares) {
  sudaf::MilanOptions milan;
  milan.num_rows = rows;
  milan.num_squares = squares;
  milan.seed = seed;
  return sudaf::GenerateMilanData(milan);
}

// The engine path (hardcoded per-row UDAFs, no rewriting, no cache) is the
// oracle's independent evaluation.
std::unique_ptr<SudafSession> ReferenceSession(const Catalog* catalog,
                                               int threads) {
  SessionOptions options;
  options.collect_traces = false;
  options.exec.parallel = true;
  options.exec.num_threads = threads;
  auto session = std::make_unique<SudafSession>(catalog, options);
  SUDAF_CHECK(sudaf::bench::RegisterQuantileUdafs(session.get(), 10).ok());
  return session;
}

// One span of the benchmark's own, around a public call.
SpanRecord Call(int64_t request, int id, int parent, const char* name,
                double start_ms, double end_ms) {
  SpanRecord s;
  s.request = request;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ms = start_ms;
  s.end_ms = end_ms;
  return s;
}

// Times one SudafSession::Execute call and records it. Returns the answer
// table, or null when the query failed (counted in `out`).
std::unique_ptr<Table> TimedExecute(SudafSession* session,
                                    const std::string& sql, SpanLog* log,
                                    RunOutcome* out, Phase* phase) {
  const double t0 = NowMs();
  Result<QueryResult> r = session->Execute(sql, ExecMode::kSudafShare);
  const double t1 = NowMs();
  ++out->attempted;
  if (!r.ok()) {
    out->Fail(sql + ": " + r.status().ToString());
    return nullptr;
  }
  phase->query_ms.push_back(t1 - t0);
  phase->done_ms.push_back(t1 - phase->origin_ms);
  if (log != nullptr) {
    const int64_t request = log->NewRequest();
    log->AddQuery(request, {Call(request, 0, -1, "Execute", t0, t1)},
                  r->trace.get(), t1 - t0, /*coalesced=*/false);
  }
  return std::move(r->table);
}

void CheckAnswer(const Table* got, const Result<QueryResult>& want,
                 const std::string& what, RunOutcome* out) {
  ++out->attempted;
  ++out->checked;
  if (!want.ok()) {
    out->Fail(what + ": reference failed: " + want.status().ToString());
    return;
  }
  const std::string diff = CompareTables(*got, *want->table);
  if (!diff.empty()) out->Fail(what + ": wrong answer: " + diff);
}

// The POSIX Vfs, except that it counts every fsync the persistence layer
// asks for instead of flushing. The journal is still written to disk
// through the page cache. On a shared VM, fsync took ~30% of `append`'s
// time and was its main source of run-to-run spread: it measured the
// host's disk, not the program (NOTES.md, "Steadiness").
class NoFlushVfs final : public sudaf::Vfs {
 public:
  int64_t syncs() const { return syncs_.load(); }

  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<std::unique_ptr<sudaf::VfsFile>> OpenTrunc(
      const std::string& path) override {
    return Wrap(base_->OpenTrunc(path));
  }
  Result<std::unique_ptr<sudaf::VfsFile>> OpenAppend(const std::string& path,
                                                     bool* created) override {
    return Wrap(base_->OpenAppend(path, created));
  }
  sudaf::Status Rename(const std::string& from,
                       const std::string& to) override {
    return base_->Rename(from, to);
  }
  sudaf::Status SyncDir(const std::string&) override {
    ++syncs_;
    return sudaf::Status::OK();
  }
  sudaf::Status RemoveIfExists(const std::string& path) override {
    return base_->RemoveIfExists(path);
  }
  sudaf::Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  int64_t FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  std::vector<std::string> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }

 private:
  class File final : public sudaf::VfsFile {
   public:
    File(NoFlushVfs* vfs, std::unique_ptr<sudaf::VfsFile> file)
        : vfs_(vfs), file_(std::move(file)) {}
    sudaf::Status Write(std::string_view data) override {
      return file_->Write(data);
    }
    sudaf::Status Sync() override {
      ++vfs_->syncs_;
      return sudaf::Status::OK();
    }
    sudaf::Status Close() override { return file_->Close(); }

   private:
    NoFlushVfs* vfs_;
    std::unique_ptr<sudaf::VfsFile> file_;
  };

  Result<std::unique_ptr<sudaf::VfsFile>> Wrap(
      Result<std::unique_ptr<sudaf::VfsFile>> file) {
    if (!file.ok()) return file.status();
    return std::unique_ptr<sudaf::VfsFile>(
        std::make_unique<File>(this, std::move(*file)));
  }

  sudaf::Vfs* base_ = sudaf::Vfs::Default();
  std::atomic<int64_t> syncs_{0};
};

double CacheMib(SudafSession& session) {
  return static_cast<double>(session.cache().ApproxBytes()) / (1 << 20);
}

// --- explore ----------------------------------------------------------------

class Explore : public Workload {
 public:
  explicit Explore(const RunConfig& config) : config_(config) {
    for (const std::string& agg : sudaf::bench::Figure10Aggregates()) {
      const bool quantile = agg.rfind("approx_", 0) == 0;
      for (int model = 1; model <= 3; ++model) {
        // Quantiles run on model 1 only: on model 2 each hit solves the
        // max-entropy fit for every one of 10k groups (~47 ms) and would
        // swamp the mix; on model 3 the fit diverges (NOTES.md).
        if (quantile && model != 1) continue;
        pool_.push_back(sudaf::bench::QueryModel(model, agg));
      }
    }
  }

  // The data is the library's default workload data for every seed; the
  // seed draws the query sequence. Other TPC-DS-like seeds make groups
  // whose columns are constant, where the power-sum forms of stddev,
  // skewness and kurtosis cancel to NaN or to huge finite values (NOTES.md).
  void Setup(bool traced, RunOutcome* out) override {
    catalog_ = std::make_unique<Catalog>();
    SUDAF_CHECK(sudaf::bench::SetupWorkloadData(sudaf::bench::WorkloadOptions(),
                                                catalog_.get())
                    .ok());

    SessionOptions options;  // unbounded state cache
    options.collect_traces = traced;
    session_ = std::make_unique<SudafSession>(catalog_.get(), options);
    SUDAF_CHECK(sudaf::bench::RegisterQuantileUdafs(session_.get(), 10).ok());
    // Warm-up: each distinct query once, so every timed query is a hit.
    for (const std::string& sql : pool_) {
      Result<QueryResult> r = session_->Execute(sql, ExecMode::kSudafShare);
      if (!r.ok()) out->Fail("warm-up " + sql + ": " + r.status().ToString());
    }
  }

  Phase Run(double seconds, SpanLog* log, RunOutcome* out) override {
    Phase phase;
    sudaf::Rng rng(StreamSeed(config_.seed, 3));
    latest_.clear();
    latest_.resize(pool_.size());
    const Boundary before = Boundary::Take(*session_, nullptr);
    const double start = NowMs();
    const double deadline = start + seconds * 1000.0;
    phase.origin_ms = start;
    while (NowMs() < deadline) {
      const size_t i = rng.NextBelow(pool_.size());
      std::unique_ptr<Table> t =
          TimedExecute(session_.get(), pool_[i], log, out, &phase);
      if (t != nullptr) latest_[i] = std::move(t);
    }
    phase.elapsed_ms = NowMs() - start;
    phase.deltas.Add(before, Boundary::Take(*session_, nullptr));
    phase.cache_mib = CacheMib(*session_);
    return phase;
  }

  // The oracle checks the last answer of every distinct query drawn. The
  // approximate quantiles are checked against no-share mode instead: the
  // engine's hardcoded quantile UDAFs fit their sketch differently and
  // land up to 4% away, so only the same sketch without the cache is a
  // like-for-like reference.
  void Check(RunOutcome* out) override {
    std::unique_ptr<SudafSession> ref =
        ReferenceSession(catalog_.get(), config_.nproc);
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (latest_[i] == nullptr) continue;
      const ExecMode mode = pool_[i].find("approx_") != std::string::npos
                                ? ExecMode::kSudafNoShare
                                : ExecMode::kEngine;
      CheckAnswer(latest_[i].get(), ref->Execute(pool_[i], mode), pool_[i],
                  out);
    }
  }

  std::vector<std::pair<std::string, int64_t>> TableSizes() const override {
    std::vector<std::pair<std::string, int64_t>> sizes;
    for (const std::string& name : catalog_->TableNames()) {
      sizes.emplace_back(name, (*catalog_->GetTable(name))->num_rows());
    }
    return sizes;
  }

 private:
  const RunConfig config_;
  std::vector<std::string> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<SudafSession> session_;
  std::vector<std::unique_ptr<Table>> latest_;  // last answer per query
};

// --- dashboard --------------------------------------------------------------

class Dashboard : public Workload {
 public:
  explicit Dashboard(const RunConfig& config) : config_(config) {}

  void Setup(bool traced, RunOutcome* out) override {
    catalog_ = std::make_unique<Catalog>();
    catalog_->PutTable(kMilan,
                       MilanTable(kRows, StreamSeed(config_.seed, 1), kSquares));
    // WHERE constants are drawn between the 5th and 50th percentile of the
    // data, so every refresh keeps at least half of the rows.
    const std::vector<double>& traffic =
        (*catalog_->GetTable(kMilan))->column(2).doubles();
    cuts_.clear();
    for (size_t i = 0; i < traffic.size(); i += 61) cuts_.push_back(traffic[i]);
    std::sort(cuts_.begin(), cuts_.end());

    // The engine runs single-threaded (ExecOptions' default). On a shared
    // 4-vCPU VM a 4-thread pass lost ~45% of its CPU time to steal and
    // waited on the slowest worker, so its timings spread twice as wide.
    SessionOptions options;
    options.cache_policy.max_bytes = kCacheBytes;
    options.collect_traces = traced;
    session_ = std::make_unique<SudafSession>(catalog_.get(), options);
    service_ = std::make_unique<sudaf::QueryService>(session_.get());
    // Warm-up: one refresh brings up the service and the allocator.
    sudaf::Rng warm(StreamSeed(config_.seed, 4));
    std::vector<sudaf::QueryTicket> tickets;
    for (const char* agg : kPanels) {
      tickets.push_back(service_->Submit(PanelSql(agg, Threshold(&warm)),
                                         ExecMode::kSudafShare));
    }
    for (sudaf::QueryTicket& t : tickets) {
      Result<QueryResult> r = t.Wait();
      if (!r.ok()) out->Fail("warm-up panel: " + r.status().ToString());
    }
  }

  Phase Run(double seconds, SpanLog* log, RunOutcome* out) override;

  // The oracle recomputes the sampled refresh with one engine query that
  // evaluates all 8 panels, and matches groups by square_id.
  void Check(RunOutcome* out) override {
    std::unique_ptr<SudafSession> ref =
        ReferenceSession(catalog_.get(), config_.nproc);
    if (sampled_.panels.empty()) return;  // the run ended before it
    std::string sql = "SELECT square_id";
    for (const char* agg : kPanels) {
      sql += std::string(", ") + agg + "(internet_traffic)";
    }
    sql += " FROM milan_data WHERE internet_traffic > " +
           Num(sampled_.threshold) + " GROUP BY square_id";
    Result<QueryResult> want = ref->Execute(sql, ExecMode::kEngine);
    for (size_t p = 0; p < sampled_.panels.size(); ++p) {
      ++out->attempted;
      ++out->checked;
      const std::string what = PanelSql(kPanels[p], sampled_.threshold);
      if (!want.ok()) {
        out->Fail(what + ": reference failed: " + want.status().ToString());
      } else if (sampled_.panels[p] == nullptr) {
        out->Fail(what + ": no answer kept");
      } else {
        const std::string diff = CompareKeyedColumn(
            *sampled_.panels[p], 1, *want->table, static_cast<int>(p) + 1);
        if (!diff.empty()) out->Fail(what + ": wrong answer: " + diff);
      }
    }
  }

  std::vector<std::pair<std::string, int64_t>> TableSizes() const override {
    return {{kMilan, kRows}};
  }

 private:
  // 6 MB of columns in 1k groups: past the per-core L2, yet a neighbour
  // streaming 320 MB through the shared L3 moved the refresh time by under
  // 10%. With 1M rows in 10k groups the same neighbour doubled it, and
  // the timings followed the host's load (NOTES.md, "Steadiness").
  static constexpr int64_t kRows = 250'000;
  static constexpr int kSquares = 1'000;
  // Well below the ~0.07 MiB each refresh's group set needs times the
  // refreshes of a run, so every refresh past the first few evicts.
  static constexpr int64_t kCacheBytes = 1 << 19;
  // The refresh whose answers the oracle checks: late enough that the
  // cache has started evicting.
  static constexpr int kSampledRefresh = 8;
  static constexpr const char* kPanels[8] = {
      "avg", "var", "stddev", "skewness", "kurtosis", "qm", "gm", "hm"};

  struct Sample {
    double threshold = 0;
    std::vector<std::unique_ptr<Table>> panels;
  };

  static std::string PanelSql(const char* agg, double threshold) {
    return std::string("SELECT square_id, ") + agg +
           "(internet_traffic) FROM milan_data WHERE internet_traffic > " +
           Num(threshold) + " GROUP BY square_id";
  }

  double Threshold(sudaf::Rng* rng) const {
    const double u = rng->NextDoubleIn(0.05, 0.5);
    return cuts_[static_cast<size_t>(u * static_cast<double>(cuts_.size()))];
  }

  const RunConfig config_;
  std::vector<double> cuts_;  // sorted sample of internet_traffic
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<SudafSession> session_;
  std::unique_ptr<sudaf::QueryService> service_;  // borrows session_
  Sample sampled_;  // the answers of refresh kSampledRefresh
};

Phase Dashboard::Run(double seconds, SpanLog* log, RunOutcome* out) {
  Phase phase;
  phase.scan_rows = kRows;
  sampled_ = Sample();
  sudaf::Rng rng(StreamSeed(config_.seed, 3));
  const int panels = static_cast<int>(std::size(kPanels));
  struct Pending {
    int panel;
    sudaf::QueryTicket ticket;
    double submit0, submit1;
  };
  std::vector<double> refresh_ms;
  const Boundary before = Boundary::Take(*session_, service_.get());
  const double start = NowMs();
  const double deadline = start + seconds * 1000.0;
  int refreshes = 0;
  for (; NowMs() < deadline; ++refreshes) {
    const double threshold = Threshold(&rng);
    const bool keep = refreshes == kSampledRefresh;  // for the oracle
    if (keep) {
      sampled_.threshold = threshold;
      sampled_.panels.resize(panels);
    }
    const double refresh_start = NowMs();
    // Every panel is submitted before the first wait, so the batching
    // window holds the whole refresh when the wait claims it: one group
    // and one scan per refresh.
    std::vector<Pending> pending;
    for (int p = 0; p < panels; ++p) {
      const double t0 = NowMs();
      sudaf::QueryTicket ticket =
          service_->Submit(PanelSql(kPanels[p], threshold),
                           ExecMode::kSudafShare);
      pending.push_back({p, std::move(ticket), t0, NowMs()});
    }
    for (Pending& q : pending) {
      const double w0 = NowMs();
      Result<QueryResult> r = q.ticket.Wait();
      const double w1 = NowMs();
      ++out->attempted;
      if (!r.ok()) {
        out->Fail(std::string(kPanels[q.panel]) + ": " + r.status().ToString());
        continue;
      }
      phase.query_ms.push_back(w1 - q.submit0);
      phase.done_ms.push_back(w1 - start);
      if (log != nullptr) {
        const int64_t request = log->NewRequest();
        log->AddQuery(request,
                      {Call(request, 0, -1, "query", q.submit0, w1),
                       Call(request, 1, 0, "Submit", q.submit0, q.submit1),
                       Call(request, 2, 0, "Wait", w0, w1)},
                      r->trace.get(), w1 - q.submit0,
                      r->stats.batch_size > 0);
      }
      if (keep) sampled_.panels[q.panel] = std::move(r->table);
    }
    refresh_ms.push_back(NowMs() - refresh_start);
  }
  phase.elapsed_ms = NowMs() - start;
  phase.deltas.Add(before, Boundary::Take(*session_, service_.get()));
  phase.cache_mib = CacheMib(*session_);
  out->facts["dashboard.refreshes"] = refreshes;
  out->facts["dashboard.refresh_ms.p50"] = Median(refresh_ms);
  return phase;
}

// --- append -----------------------------------------------------------------

class Append : public Workload {
 public:
  explicit Append(const RunConfig& config) : config_(config) {}

  ~Append() override {
    session_.reset();  // detaches the persistence store first
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  void Setup(bool traced, RunOutcome* out) override {
    base_ = MilanTable(kBaseRows, StreamSeed(config_.seed, 1));
    deltas_.clear();
    for (int i = 0; i < kCycleRounds; ++i) {
      deltas_.push_back(MilanTable(kBaseRows / 100,
                                   StreamSeed(config_.seed, 100 + i)));
    }
    catalog_ = std::make_unique<Catalog>();
    catalog_->PutTable(kMilan, CopyTable(*base_));

    SessionOptions options;  // default flush policy and WAL limit
    options.collect_traces = traced;
    options.vfs = &vfs_;
    session_ = std::make_unique<SudafSession>(catalog_.get(), options);
    // One Append lives at a time and removes its store when destroyed.
    dir_ = config_.out_dir + "/tmp/append-" + std::to_string(getpid());
    std::filesystem::create_directories(dir_);
    sudaf::Status st = session_->EnableCachePersistence(dir_);
    if (!st.ok()) out->Fail("persistence attach: " + st.ToString());
    WarmUp(out);
  }

  Phase Run(double seconds, SpanLog* log, RunOutcome* out) override;

  // Answers are checked inside Run, at the end of each cycle, while the
  // table still holds the rows they were computed from.
  void Check(RunOutcome*) override {}

  std::vector<std::pair<std::string, int64_t>> TableSizes() const override {
    return {{kMilan, kBaseRows}, {"append_delta", kBaseRows / 100}};
  }

 private:
  static constexpr int64_t kBaseRows = 2'000'000;
  // Rounds between table resets: the table grows to at most 1.24x its base
  // size, so append cost and memory stay flat over a run.
  static constexpr int kCycleRounds = 24;
  static constexpr int kMaxChecks = 3;

  static std::vector<std::string> Queries() {
    const std::string t = "internet_traffic";
    return {
        "SELECT square_id, avg(" + t + "), var(" + t + "), stddev(" + t +
            ") FROM milan_data GROUP BY square_id ORDER BY square_id",
        "SELECT square_id, sum(" + t + "), count(" + t +
            ") FROM milan_data GROUP BY square_id ORDER BY square_id",
        "SELECT square_id, avg(" + t + "), kurtosis(" + t +
            ") FROM milan_data WHERE " + t +
            " > 1.0 GROUP BY square_id ORDER BY square_id",
    };
  }

  static std::unique_ptr<Table> CopyTable(const Table& src) {
    auto copy = std::make_unique<Table>(src.schema());
    copy->Reserve(src.num_rows());
    for (int c = 0; c < src.num_columns(); ++c) {
      const sudaf::Column& from = src.column(c);
      sudaf::Column& to = copy->column(c);
      for (int64_t r = 0; r < src.num_rows(); ++r) {
        if (from.type() == sudaf::DataType::kFloat64) {
          to.AppendFloat64(from.GetFloat64(r));
        } else {
          to.AppendInt64(from.GetInt64(r));  // milan_data has no strings
        }
      }
    }
    copy->FinishBulkAppend();
    return copy;
  }

  // Runs the queries untimed: the cold pass after a reset re-fills the
  // cache from a full scan.
  void WarmUp(RunOutcome* out) {
    for (const std::string& sql : Queries()) {
      Result<QueryResult> r = session_->Execute(sql, ExecMode::kSudafShare);
      if (!r.ok()) out->Fail("warm-up " + sql + ": " + r.status().ToString());
    }
  }

  void CheckLastRound(RunOutcome* out) {
    std::unique_ptr<SudafSession> ref =
        ReferenceSession(catalog_.get(), config_.nproc);
    const std::vector<std::string> queries = Queries();
    for (size_t q = 0; q < queries.size(); ++q) {
      if (last_[q] == nullptr) continue;
      CheckAnswer(last_[q].get(), ref->Execute(queries[q], ExecMode::kEngine),
                  queries[q], out);
    }
  }

  const RunConfig config_;
  NoFlushVfs vfs_;  // outlives the session
  std::unique_ptr<Table> base_;
  std::vector<std::unique_ptr<Table>> deltas_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<SudafSession> session_;
  std::string dir_;
  std::vector<std::unique_ptr<Table>> last_;  // answers of the last round
};

Phase Append::Run(double seconds, SpanLog* log, RunOutcome* out) {
  Phase phase;
  phase.scan_rows = kBaseRows;
  const std::vector<std::string> queries = Queries();
  const double budget = seconds * 1000.0;
  const sudaf::CachePersistence* persist = session_->cache_persistence();
  double wal_growth = 0;        // bytes appended between compactions
  int64_t wal_measured = 0;     // journal appends those bytes came from
  int checks = 0;
  while (phase.elapsed_ms < budget) {
    const Boundary before = Boundary::Take(*session_, nullptr);
    const int64_t syncs_before = vfs_.syncs();
    last_.clear();
    last_.resize(queries.size());
    for (int round = 0; round < kCycleRounds && phase.elapsed_ms < budget;
         ++round) {
      const double round_start = NowMs();
      phase.origin_ms = round_start - phase.elapsed_ms;
      const int64_t request = log != nullptr ? log->NewRequest() : 0;
      const double a0 = NowMs();
      sudaf::Status st = catalog_->AppendRows(kMilan, *deltas_[round]);
      const double a1 = NowMs();
      ++out->attempted;
      if (!st.ok()) {
        out->Fail("append: " + st.ToString());
      } else {
        phase.append_ms.push_back(a1 - a0);
      }
      if (log != nullptr) {
        log->AddCalls(request, {Call(request, 0, -1, "AppendRows", a0, a1)});
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        const int64_t bytes0 = persist != nullptr ? persist->wal_bytes() : 0;
        const int64_t appends0 = persist != nullptr ? persist->wal_appends() : 0;
        const int64_t snaps0 =
            persist != nullptr ? persist->snapshots_written() : 0;
        last_[q] = TimedExecute(session_.get(), queries[q], log, out, &phase);
        if (persist != nullptr && persist->snapshots_written() == snaps0) {
          wal_growth += static_cast<double>(persist->wal_bytes() - bytes0);
          wal_measured += persist->wal_appends() - appends0;
        }
      }
      phase.elapsed_ms += NowMs() - round_start;
    }
    phase.deltas.Add(before, Boundary::Take(*session_, nullptr));
    phase.fsyncs += vfs_.syncs() - syncs_before;
    if (checks++ < kMaxChecks) CheckLastRound(out);
    // Reset the table to its base rows (untimed) and re-fill the cache.
    catalog_->PutTable(kMilan, CopyTable(*base_));
    WarmUp(out);
  }
  phase.cache_mib = CacheMib(*session_);
  if (wal_measured > 0) {
    phase.wal_bytes = wal_growth / static_cast<double>(wal_measured) *
                      static_cast<double>(phase.deltas.wal_appends);
  }
  return phase;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "explore") return std::make_unique<Explore>(config);
  if (config.workload == "dashboard") {
    return std::make_unique<Dashboard>(config);
  }
  if (config.workload == "append") return std::make_unique<Append>(config);
  return nullptr;
}

}  // namespace perfbench
