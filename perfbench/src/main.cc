// SUDAF benchmark program.
//
//   perfbench --workload explore|dashboard|append --seed N --seconds S
//             --trace 0|1 --out DIR [--git-sha SHA] [--src-sha256 HASH]
//
// --trace 0 sets the workload up several times (setup_s is their median),
// runs it untraced for S seconds, checks a sample of its answers and
// prints the end-to-end metrics. --trace 1 runs it untraced and then
// traced for S seconds each and prints the per-layer metrics: each
// layer's self time, its counters, the unattributed residue and the
// tracing overhead. Either way the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}, and a report
// with a fingerprint of the build and machine is written under DIR.
// perfbench/run.py builds this program and is the entry point.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/timer.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace perfbench {
namespace {

// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 5;

int CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PerQuery(double total, int64_t queries) {
  return queries > 0 ? total / static_cast<double>(queries) : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double HistSum(const sudaf::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

double HistMean(const sudaf::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  if (it == s.histograms.end() || it->second.count == 0) return 0;
  return it->second.sum / static_cast<double>(it->second.count);
}

// Throughput as the median over kWindows equal slices of the timed window
// of the queries answered in each slice, so a few seconds of outside
// interference move it less than a plain total would. A query counts in a
// slice with the share of its submit-to-answer interval that lies there.
constexpr int kWindows = 10;

double MedianWindowQps(const Phase& p) {
  if (p.elapsed_ms <= 0) return 0;
  const double width = p.elapsed_ms / kWindows;
  std::vector<double> work(kWindows, 0);
  for (size_t i = 0; i < p.done_ms.size(); ++i) {
    const double end = p.done_ms[i];
    const double begin = end - p.query_ms[i];
    const double len = std::max(end - begin, 1e-9);
    for (int w = std::max(0, static_cast<int>(begin / width));
         w < kWindows && w * width < end; ++w) {
      const double overlap =
          std::min(end, (w + 1) * width) - std::max(begin, w * width);
      if (overlap > 0) work[w] += overlap / len;
    }
  }
  for (double& v : work) v /= width / 1000.0;
  return Median(work);
}

void EndToEndMetrics(const Phase& p, const std::vector<double>& setups,
                     double peak_heap_mb, RunOutcome* out) {
  const int64_t queries = static_cast<int64_t>(p.query_ms.size());
  out->Set("qps", MedianWindowQps(p), "1/s");
  out->Set("query_ms.p50", Percentile(p.query_ms, 50), "ms");
  out->Set("query_ms.p95", Percentile(p.query_ms, 95), "ms");
  out->Set("ok_frac",
           1.0 - Ratio(static_cast<double>(out->failed),
                       static_cast<double>(out->attempted)),
           "frac");
  out->Set("setup_s", Median(setups), "s");
  out->Set("peak_heap_mb", peak_heap_mb, "MiB");
  out->facts["samples.query"] = static_cast<double>(queries);
  out->facts["samples.append"] = static_cast<double>(p.append_ms.size());
  out->facts["append_ms.p50"] = Percentile(p.append_ms, 50);
}

// Per-layer metrics of the traced phase `p`; `untraced_ms` is the mean
// query latency of the untraced phase that ran before it.
void LayerMetrics(const Phase& p, const LayerTimes& layers,
                  double untraced_ms, RunOutcome* out) {
  const int64_t q = layers.queries;
  const sudaf::MetricsSnapshot& s = p.deltas.session;
  const sudaf::MetricsSnapshot& svc = p.deltas.service;
  const sudaf::StateCache::Counters& cache = p.deltas.cache;
  auto self = [&](const std::string& layer) {
    auto it = layers.self_ms.find(layer);
    return PerQuery(it == layers.self_ms.end() ? 0 : it->second, q);
  };
  auto per_query = [&](double v) { return PerQuery(v, q); };
  auto counter = [&](const std::string& name) {
    return static_cast<double>(s.counter(name));
  };

  // service
  out->Set("service.wait_ms", self("service.wait_ms"), "ms");
  out->Set("service.queue_wait_ms",
           per_query(HistSum(svc, "sudaf.service.queue_wait_ms")), "ms");
  out->Set("service.shed",
           per_query(static_cast<double>(svc.counter("sudaf.service.shed"))),
           "1/query");
  out->Set("service.retries",
           per_query(static_cast<double>(svc.counter("sudaf.service.retries"))),
           "1/query");
  // shared_scan
  const double coalesced =
      static_cast<double>(svc.counter("sudaf.batch.coalesced"));
  out->Set("batch.coalesced_frac",
           Ratio(coalesced,
                 coalesced + static_cast<double>(svc.counter("sudaf.batch.solo"))),
           "frac");
  out->Set("batch.scan_passes_per_query",
           Ratio(static_cast<double>(svc.counter("sudaf.batch.scan_passes")),
                 coalesced),
           "1/query");
  out->Set("batch.wait_ms", self("batch.wait_ms"), "ms");
  out->Set("batch.states_dedup_ratio",
           Ratio(static_cast<double>(svc.counter("sudaf.batch.states_deduped")),
                 static_cast<double>(
                     svc.counter("sudaf.batch.states_requested"))),
           "frac");
  // sql + rewriter
  out->Set("rewrite.ms", self("rewrite.ms"), "ms");
  out->Set("session.other_ms", self("session.other_ms"), "ms");
  // sharing / cache probe
  out->Set("probe.ms", self("probe.ms"), "ms");
  out->Set("serve.ms", self("serve.ms"), "ms");
  const double hits = counter("sudaf.cache.probe_hits");
  out->Set("cache.state_hit_ratio",
           Ratio(hits, hits + counter("sudaf.cache.probe_misses")), "frac");
  out->Set("cache.set_hit_ratio",
           Ratio(static_cast<double>(cache.set_hits),
                 static_cast<double>(cache.probes)),
           "frac");
  out->Set("cache.evictions", per_query(static_cast<double>(cache.evictions)),
           "1/query");
  out->Set("cache.bytes", p.cache_mib, "MiB");
  // terminate
  out->Set("terminate.ms", self("terminate.ms"), "ms");
  // engine
  const double input_ms = s.dcounter("sudaf.phase.filter_ms") +
                          s.dcounter("sudaf.phase.gather_ms") +
                          s.dcounter("sudaf.phase.group_ms");
  const double input_rows =
      counter("sudaf.input.scans") * static_cast<double>(p.scan_rows) +
      static_cast<double>(cache.delta_rows_scanned);
  out->Set("filter.ms", self("filter.ms"), "ms");
  out->Set("gather.ms", self("gather.ms"), "ms");
  out->Set("group.ms", self("group.ms"), "ms");
  out->Set("input.rows", per_query(input_rows), "rows/query");
  out->Set("input.ns_per_row", Ratio(input_ms * 1e6, input_rows), "ns/row");
  out->Set("input.scans", per_query(counter("sudaf.input.scans")), "1/query");
  // state_batch
  const double fused_rows = HistSum(s, "sudaf.fused.morsel_rows");
  out->Set("fused.ms", self("fused.ms"), "ms");
  out->Set("fused.ns_per_row",
           Ratio(self("fused.ms") * static_cast<double>(q) * 1e6, fused_rows),
           "ns/row");
  out->Set("fused.channels", per_query(counter("sudaf.fused.channels")),
           "1/query");
  out->Set("fused.slots", per_query(counter("sudaf.fused.slots")), "1/query");
  out->Set("fused.shared_slots", per_query(counter("sudaf.fused.shared_slots")),
           "1/query");
  out->Set("fused.morsels", per_query(counter("sudaf.fused.morsels")),
           "1/query");
  out->Set("fused.threads_used", HistMean(s, "sudaf.fused.threads_used"),
           "threads");
  // thread_pool
  out->Set("pool.jobs", per_query(static_cast<double>(p.deltas.pool.jobs)),
           "1/query");
  out->Set("pool.tasks", per_query(static_cast<double>(p.deltas.pool.tasks)),
           "1/query");
  // refresh
  out->Set("refresh.ms", self("refresh.ms"), "ms");
  out->Set("cache.delta_refreshes",
           per_query(static_cast<double>(cache.delta_refreshes)), "1/query");
  out->Set("cache.delta_rows_scanned",
           per_query(static_cast<double>(cache.delta_rows_scanned)),
           "rows/query");
  out->Set("cache.full_invalidations",
           per_query(static_cast<double>(cache.full_invalidations)),
           "1/query");
  out->Set("refresh.rows_ratio",
           Ratio(static_cast<double>(cache.delta_rows_scanned),
                 static_cast<double>(cache.delta_refreshes) *
                     static_cast<double>(p.scan_rows)),
           "frac");
  // storage
  out->Set("catalog.append_ms", Percentile(p.append_ms, 50), "ms");
  // cache_persist / vfs
  out->Set("persist.wal_appends",
           per_query(static_cast<double>(p.deltas.wal_appends)), "1/query");
  out->Set("persist.wal_bytes", per_query(p.wal_bytes), "B/query");
  out->Set("persist.fsyncs", per_query(static_cast<double>(p.fsyncs)),
           "1/query");
  out->Set("persist.snapshots",
           per_query(static_cast<double>(p.deltas.snapshots)), "1/query");
  // tracing itself
  const double traced_ms = per_query(layers.latency_ms);
  out->Set("trace.query_ms", traced_ms, "ms");
  out->Set("trace.unattributed_ms", self("unattributed"), "ms");
  out->Set("trace.unattributed_pct",
           100.0 * Ratio(self("unattributed"), traced_ms), "%");
  out->Set("trace.overhead_pct", 100.0 * (Ratio(traced_ms, untraced_ms) - 1.0),
           "%");
}

double MeanOf(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::string ResultLine(const RunOutcome& out) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 && out.checked > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    line += first ? "" : ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + Num(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return line + "}}";
}

struct Fingerprint {
  std::string git_sha = "unknown";
  std::string src_sha256 = "unknown";
};

bool WriteReport(const RunConfig& config, const Fingerprint& fp,
                 const RunOutcome& out,
                 const std::vector<std::pair<std::string, int64_t>>& tables,
                 const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"sudaf.perfbench.v1\",\n");
  std::fprintf(f, "  \"workload\": %s,\n  \"seed\": %llu,\n",
               JsonString(config.workload).c_str(),
               static_cast<unsigned long long>(config.seed));
  std::fprintf(f, "  \"seconds\": %s,\n  \"trace\": %d,\n",
               Num(config.seconds).c_str(), config.trace ? 1 : 0);
  std::fprintf(f,
               "  \"fingerprint\": {\"git_sha\": %s, \"src_sha256\": %s, "
               "\"compiler\": %s, \"build_type\": %s, \"nproc\": %d, "
               "\"hardware_concurrency\": %u},\n",
               JsonString(fp.git_sha).c_str(),
               JsonString(fp.src_sha256).c_str(),
               JsonString(PERFBENCH_COMPILER).c_str(),
               JsonString(PERFBENCH_BUILD_TYPE).c_str(), config.nproc,
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"tables\": {");
  for (size_t i = 0; i < tables.size(); ++i) {
    std::fprintf(f, "%s%s: %lld", i == 0 ? "" : ", ",
                 JsonString(tables[i].first).c_str(),
                 static_cast<long long>(tables[i].second));
  }
  std::fprintf(f, "},\n  \"facts\": {");
  bool first = true;
  for (const auto& [name, v] : out.facts) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", JsonString(name).c_str(),
                 Num(v).c_str());
    first = false;
  }
  std::fprintf(f, "},\n  \"checked\": %lld,\n  \"failures\": [",
               static_cast<long long>(out.checked));
  for (size_t i = 0; i < out.failures.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                 JsonString(out.failures[i]).c_str());
  }
  std::fprintf(f, "],\n  \"result\": %s\n}\n", ResultLine(out).c_str());
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload explore|dashboard|append "
               "--seed N --seconds S --trace 0|1 --out DIR "
               "[--git-sha SHA] [--src-sha256 HASH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  Fingerprint fp;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      config.out_dir = value;
    } else if (flag == "--git-sha") {
      fp.git_sha = value;
    } else if (flag == "--src-sha256") {
      fp.src_sha256 = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.out_dir.empty() || config.seconds <= 0) {
    return Usage();
  }
  config.nproc = CpusAvailable();
  if (MakeWorkload(config) == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
    return Usage();
  }
  std::filesystem::create_directories(config.out_dir);
  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");

  RunOutcome out;
  std::unique_ptr<Workload> w;
  const double t_start = sudaf::NowMs();
  auto progress = [&](const char* step) {
    std::fprintf(stderr, "[perfbench] %s %s: %.1f s, peak rss %.0f MiB\n",
                 config.workload.c_str(), step,
                 (sudaf::NowMs() - t_start) / 1000.0, PeakRssMb());
  };
  if (!config.trace) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
      w.reset();
      w = MakeWorkload(config);
      const double t0 = sudaf::NowMs();
      w->Setup(/*traced=*/false, &out);
      setups.push_back((sudaf::NowMs() - t0) / 1000.0);
      progress("setup");
    }
    // The heap peak covers the run, not the oracle's reference session.
    double peak_heap_mb = 0;
    Phase phase;
    {
      HeapSampler heap;
      phase = w->Run(config.seconds, nullptr, &out);
      peak_heap_mb = heap.peak_mib();
    }
    progress("run");
    out.facts["peak_rss_mb"] = PeakRssMb();
    w->Check(&out);
    progress("check");
    EndToEndMetrics(phase, setups, peak_heap_mb, &out);
  } else {
    w = MakeWorkload(config);
    w->Setup(/*traced=*/false, &out);
    const Phase untraced = w->Run(config.seconds, nullptr, &out);
    w->Check(&out);
    progress("untraced run");
    w.reset();
    w = MakeWorkload(config);
    w->Setup(/*traced=*/true, &out);
    SpanLog log;
    const Phase traced = w->Run(config.seconds, &log, &out);
    w->Check(&out);
    progress("traced run");
    LayerMetrics(traced, log.layers(), MeanOf(untraced.query_ms), &out);
    if (!log.Write(stem + "-spans.jsonl")) {
      std::fprintf(stderr, "cannot write %s-spans.jsonl\n", stem.c_str());
    }
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "failure: %s\n", f.c_str());
  }
  if (!WriteReport(config, fp, out, w->TableSizes(), stem + ".json")) {
    std::fprintf(stderr, "cannot write %s.json\n", stem.c_str());
  }
  w.reset();
  std::error_code ignored;  // left in place while another run uses it
  std::filesystem::remove(config.out_dir + "/tmp", ignored);
  std::printf("%s\n", ResultLine(out).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the process: blocks up to 32 MiB come from the
  // heap and the heap is never trimmed, so a page is faulted in once per
  // run, not once per query. Fresh pages cost the most, and vary the most,
  // when the VM's host is short of memory.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);
  return perfbench::Main(argc, argv);
}
