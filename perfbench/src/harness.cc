#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/rng.h"

namespace perfbench {

using sudaf::Column;
using sudaf::DataType;
using sudaf::QueryTrace;
using sudaf::Table;

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  sudaf::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.NextUint64();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// --- Answer oracle ----------------------------------------------------------

namespace {

bool Close(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return !std::isfinite(a) && !std::isfinite(b);
  }
  if (a == b) return true;
  return std::fabs(a - b) <=
         kAbsTol + kRelTol * std::max(std::fabs(a), std::fabs(b));
}

// Empty when cell (gr, c) of `got` matches cell (wr, wc) of `want`.
std::string CompareCell(const Table& got, int64_t gr, int gc, const Table& want,
                        int64_t wr, int wc) {
  const Column& a = got.column(gc);
  const Column& b = want.column(wc);
  bool same = false;
  if (a.type() == DataType::kString || b.type() == DataType::kString) {
    same = a.type() == b.type() && a.GetString(gr) == b.GetString(wr);
  } else {
    same = Close(a.GetNumeric(gr), b.GetNumeric(wr));
  }
  if (same) return "";
  return "row " + std::to_string(gr) + " column " + std::to_string(gc) +
         ": got " + a.GetValue(gr).ToString() + ", want " +
         b.GetValue(wr).ToString();
}

// Row of `want` per int64 key in column 0.
std::unordered_map<int64_t, int64_t> KeyIndex(const Table& t) {
  std::unordered_map<int64_t, int64_t> index;
  index.reserve(static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    index.emplace(t.column(0).GetInt64(r), r);
  }
  return index;
}

}  // namespace

std::string CompareTables(const Table& got, const Table& want) {
  if (got.num_columns() != want.num_columns()) {
    return "column count " + std::to_string(got.num_columns()) + " vs " +
           std::to_string(want.num_columns());
  }
  if (got.num_rows() != want.num_rows()) {
    return "row count " + std::to_string(got.num_rows()) + " vs " +
           std::to_string(want.num_rows());
  }
  for (int64_t r = 0; r < got.num_rows(); ++r) {
    for (int c = 0; c < got.num_columns(); ++c) {
      std::string diff = CompareCell(got, r, c, want, r, c);
      if (!diff.empty()) return diff;
    }
  }
  return "";
}

std::string CompareKeyedColumn(const Table& got, int got_col,
                               const Table& want, int want_col) {
  if (got.num_rows() != want.num_rows()) {
    return "row count " + std::to_string(got.num_rows()) + " vs " +
           std::to_string(want.num_rows());
  }
  const std::unordered_map<int64_t, int64_t> index = KeyIndex(want);
  for (int64_t r = 0; r < got.num_rows(); ++r) {
    auto it = index.find(got.column(0).GetInt64(r));
    if (it == index.end()) return "row " + std::to_string(r) + ": key missing";
    std::string diff = CompareCell(got, r, got_col, want, it->second, want_col);
    if (!diff.empty()) return diff;
  }
  return "";
}

// --- Traced-run accounting --------------------------------------------------

namespace {

// The layer metric a query-trace span's self time is charged to; names no
// layer maps to are charged to "unattributed".
const char* LayerOfSpan(const std::string& name) {
  static const std::map<std::string, const char*> kLayers = {
      {"execute", "session.other_ms"}, {"rewrite", "rewrite.ms"},
      {"probe", "probe.ms"},           {"states", "serve.ms"},
      {"fused_pass", "fused.ms"},      {"terminate", "terminate.ms"},
      {"filter", "filter.ms"},         {"gather", "gather.ms"},
      {"group", "group.ms"},           {"refresh", "refresh.ms"},
  };
  auto it = kLayers.find(name);
  return it == kLayers.end() ? "unattributed" : it->second;
}

// Self time of each closed span: the part of its interval in which no
// span that started later (or started together and ends sooner) is open.
// This charges every instant to the innermost open span by time, not by
// declared parent: a `refresh` span parented to `execute` but run inside
// `probe` is still taken out of `probe`'s self time. The self times of a
// query therefore add up to its `execute` span.
std::vector<double> SelfTimes(const std::vector<QueryTrace::Span>& spans) {
  std::vector<double> self(spans.size(), 0);
  std::vector<double> cuts;
  for (const QueryTrace::Span& s : spans) {
    if (s.end_ms < 0) continue;
    cuts.push_back(s.start_ms);
    cuts.push_back(s.end_ms);
  }
  std::sort(cuts.begin(), cuts.end());
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const double lo = cuts[c];
    const double hi = cuts[c + 1];
    if (hi <= lo) continue;
    int inner = -1;
    for (size_t i = 0; i < spans.size(); ++i) {
      const QueryTrace::Span& s = spans[i];
      if (s.end_ms < 0 || s.start_ms > lo || s.end_ms < hi) continue;
      if (inner < 0 || s.start_ms > spans[inner].start_ms ||
          (s.start_ms == spans[inner].start_ms &&
           s.end_ms < spans[inner].end_ms)) {
        inner = static_cast<int>(i);
      }
    }
    if (inner >= 0) self[inner] += hi - lo;
  }
  return self;
}

}  // namespace

int64_t SpanLog::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

void SpanLog::AddQuery(int64_t request, const std::vector<SpanRecord>& calls,
                       const QueryTrace* trace, double latency_ms,
                       bool coalesced) {
  std::vector<QueryTrace::Span> spans;
  if (trace != nullptr) spans = trace->spans();
  const std::vector<double> self = SelfTimes(spans);
  double execute_ms = 0;
  double execute_end = 0;
  for (const QueryTrace::Span& s : spans) {
    if (s.parent >= 0 || s.end_ms < 0) continue;
    execute_ms += s.end_ms - s.start_ms;
    execute_end = std::max(execute_end, s.end_ms);
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans.size(); ++i) {
    const bool group_wait = coalesced && spans[i].parent < 0;
    layers_.self_ms[group_wait ? "batch.wait_ms" : LayerOfSpan(spans[i].name)] +=
        self[i];
  }
  layers_.self_ms["service.wait_ms"] += std::max(0.0, latency_ms - execute_ms);
  layers_.latency_ms += latency_ms;
  layers_.queries += 1;
  if (request >= kKeptRequests || calls.empty()) return;

  spans_.insert(spans_.end(), calls.begin(), calls.end());
  // Anchor the query's tree so that its execute span ends when the call
  // that delivered the answer returned.
  const int base = static_cast<int>(calls.size());
  const double offset = calls.back().end_ms - execute_end;
  for (const QueryTrace::Span& s : spans) {
    if (s.end_ms < 0) continue;
    SpanRecord r;
    r.request = request;
    r.id = base + s.id;
    r.parent = s.parent < 0 ? calls.back().id : base + s.parent;
    r.name = s.name;
    r.start_ms = s.start_ms + offset;
    r.end_ms = s.end_ms + offset;
    spans_.push_back(std::move(r));
  }
}

void SpanLog::AddCalls(int64_t request, const std::vector<SpanRecord>& calls) {
  std::lock_guard<std::mutex> lock(mu_);
  if (request < kKeptRequests) {
    spans_.insert(spans_.end(), calls.begin(), calls.end());
  }
}

LayerTimes SpanLog::layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return layers_;
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"request\":%lld,\"span\":%d,\"parent\":%d,\"name\":%s,"
                 "\"start_ms\":%s,\"end_ms\":%s}\n",
                 static_cast<long long>(s.request), s.id, s.parent,
                 JsonString(s.name).c_str(), Num(s.start_ms).c_str(),
                 Num(s.end_ms).c_str());
  }
  return std::fclose(f) == 0;
}

// --- Registry deltas --------------------------------------------------------

Boundary Boundary::Take(sudaf::SudafSession& session,
                        sudaf::QueryService* service) {
  Boundary b;
  b.session = session.metrics().Snapshot();
  if (service != nullptr) b.service = service->metrics().Snapshot();
  b.cache = session.cache().counters();
  b.pool = sudaf::ThreadPool::Global().counters();
  if (const sudaf::CachePersistence* p = session.cache_persistence()) {
    b.wal_appends = p->wal_appends();
    b.snapshots = p->snapshots_written();
  }
  return b;
}

namespace {

void AddSnapshot(sudaf::MetricsSnapshot* acc, const sudaf::MetricsSnapshot& d) {
  for (const auto& [name, v] : d.counters) acc->counters[name] += v;
  for (const auto& [name, v] : d.dcounters) acc->dcounters[name] += v;
  for (const auto& [name, h] : d.histograms) {
    sudaf::Histogram::Snapshot& a = acc->histograms[name];
    a.count += h.count;
    a.sum += h.sum;
  }
}

}  // namespace

void Deltas::Add(const Boundary& before, const Boundary& after) {
  AddSnapshot(&session, after.session.Delta(before.session));
  AddSnapshot(&service, after.service.Delta(before.service));
  cache.probes += after.cache.probes - before.cache.probes;
  cache.set_hits += after.cache.set_hits - before.cache.set_hits;
  cache.delta_refreshes +=
      after.cache.delta_refreshes - before.cache.delta_refreshes;
  cache.delta_rows_scanned +=
      after.cache.delta_rows_scanned - before.cache.delta_rows_scanned;
  cache.full_invalidations +=
      after.cache.full_invalidations - before.cache.full_invalidations;
  cache.evictions += after.cache.evictions - before.cache.evictions;
  pool.jobs += after.pool.jobs - before.pool.jobs;
  pool.tasks += after.pool.tasks - before.pool.tasks;
  wal_appends += after.wal_appends - before.wal_appends;
  snapshots += after.snapshots - before.snapshots;
}

// --- Run outcome and report -------------------------------------------------

void RunOutcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

HeapSampler::HeapSampler() : thread_([this] {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    Sample();
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(1), [this] { return stop_; });
  }
}) {}

HeapSampler::~HeapSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void HeapSampler::Sample() {
  const struct mallinfo2 info = mallinfo2();
  const double bytes = static_cast<double>(info.uordblks + info.hblkhd);
  std::lock_guard<std::mutex> lock(mu_);
  peak_bytes_ = std::max(peak_bytes_, bytes);
}

double HeapSampler::peak_mib() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_bytes_ / (1 << 20);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
