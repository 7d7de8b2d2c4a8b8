// Fused vs. legacy multi-state grouped aggregation.
//
// The SUDAF rewrite turns one UDAF into several aggregation states over the
// same scan. The legacy executor pays per state: one full-column
// materialization of f_j(x) (std::pow per row for power sums) plus one
// grouped pass. The fused StateBatch executor pays once: a single
// morsel-driven pass that evaluates a shared expression DAG (power chains
// x^2 → x^3 → x^4 strength-reduced onto each other) and accumulates every
// state into cache-resident per-worker blocks.
//
// Three sweeps and two cases, written to BENCH_fused_states.json in the
// build tree (or to --out PATH) under a fingerprint of the build and
// machine:
//   * states 1..16 (power sums) at 1M rows, single-threaded;
//   * rows 1M..10M for the 5-state kurtosis set, single-threaded;
//   * "panels": the channel set of perfbench's dashboard refresh (its 8
//     panel UDAFs in share mode: count, Σx..Σx⁴, Σ ln|x|, Π sgn x, Σ 1/x)
//     over 250k rows in 1k groups, reporting ns/row and the Σ ln channels
//     that ran log-free (`--panels` runs only this case);
//   * "terminate": the terminate phase of perfbench's three append select
//     lists over 10k groups of synthetic states, reporting ns per group
//     and the compiled program's slots (`--terminate` runs only this
//     case);
//   * threads 1..8 through the FULL pipeline (filter → bind → group →
//     fused pass) on a 4M-row session query with a WHERE clause, reporting
//     per-phase times from the query trace and the process CPU time, and
//     checking that every thread count reproduces the 1-thread result bit
//     for bit.
// The kurtosis entry doubles as the acceptance gate: fused must be >= 2x
// the legacy path at 1M rows single-threaded. The thread sweep records
// "hardware_threads" so readers can judge the speedups against the cores
// that were actually available (a 1-core container cannot show scaling,
// only the absence of parallel overhead and the bit-identity contract).

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "agg/builtin_kernels.h"
#include "bench_support/grouped_state.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/aggregation.h"
#include "engine/state_batch.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "storage/column.h"
#include "sudaf/rewriter.h"
#include "sudaf/sudaf.h"

using namespace sudaf;  // NOLINT — bench brevity

namespace {

constexpr int32_t kGroups = 100;

// Receives a value from each timed legacy run so the compiler cannot drop
// the work.
volatile double g_sink = 0;

struct Data {
  Column x{DataType::kFloat64};
  std::vector<int32_t> gids;

  explicit Data(int64_t n) {
    Rng rng(7);
    gids.resize(n);
    x.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      x.AppendFloat64(rng.NextDoubleIn(0.5, 9.5));
      gids[i] = static_cast<int32_t>(rng.NextBelow(kGroups));
    }
  }

  ColumnBinder Binder() const {
    return [this](const std::string& name) -> Result<BoundColumn> {
      if (name != "x") return Status::InvalidArgument("no column " + name);
      return BoundColumn{&x, nullptr, 0};
    };
  }
};

// The k power-sum states sum(x^1) .. sum(x^k); with_count prepends count()
// (the kurtosis shape: n, s1, s2, s3, s4).
std::vector<ExprPtr> MakeInputs(int k) {
  std::vector<ExprPtr> inputs;
  for (int j = 1; j <= k; ++j) {
    auto parsed = ParseExpression(j == 1 ? "x" : "x^" + std::to_string(j));
    SUDAF_CHECK_MSG(parsed.ok(), parsed.status().ToString());
    inputs.push_back(std::move(*parsed));
  }
  return inputs;
}

// The legacy per-state executor this bench compares against: for each
// power-sum state sum(x^j), one full-column materialization of x^j
// (std::pow per row for j > 1) and one serial grouped pass.
double TimeLegacy(const Data& data, int k, bool with_count) {
  ExecOptions opts;
  const std::vector<double>& x = data.x.doubles();
  double t0 = NowMs();
  double sink = 0;
  if (with_count) {
    std::vector<double> cnt = bench::ComputeGroupedState(
        AggOp::kCount, {}, data.gids, kGroups, opts);
    sink += cnt[0];
  }
  for (int j = 1; j <= k; ++j) {
    std::vector<double> in(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      in[i] = j == 1 ? x[i] : std::pow(x[i], j);
    }
    std::vector<double> out =
        bench::ComputeGroupedState(AggOp::kSum, in, data.gids, kGroups, opts);
    sink += out[0];
  }
  double ms = NowMs() - t0;
  g_sink = sink;
  return ms;
}

double TimeFused(const Data& data, const std::vector<ExprPtr>& inputs,
                 bool with_count, int threads,
                 MetricsRegistry* metrics = nullptr) {
  ExecOptions opts;
  opts.parallel = threads > 1;
  opts.num_threads = threads;
  opts.metrics = metrics;
  std::vector<StateBatchRequest> requests;
  if (with_count) requests.push_back({AggOp::kCount, nullptr});
  for (const ExprPtr& input : inputs) {
    requests.push_back({AggOp::kSum, input.get()});
  }
  double t0 = NowMs();
  auto result = ComputeStateBatch(requests, data.Binder(), data.gids,
                                  kGroups, opts);
  double ms = NowMs() - t0;
  SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
  return ms;
}

// One pass's value of the sudaf.fused.* counter `name`, over the identical
// passes recorded in `metrics`.
int PerPass(MetricsRegistry& metrics, const char* name) {
  const int64_t passes = metrics.counter("sudaf.fused.passes")->value();
  return static_cast<int>(metrics.counter(name)->value() /
                          std::max<int64_t>(1, passes));
}

template <typename F>
double Best(int reps, F&& run) {
  double best = run();
  for (int r = 1; r < reps; ++r) best = std::min(best, run());
  return best;
}

int RepsFor(int64_t rows) {
  return rows <= 1'000'000 ? 5 : rows <= 4'000'000 ? 3 : 1;
}

// --smoke [--threads N]: one cold + one warm share-mode query through a
// real session, printing each profile as one line of sudaf.profile.v1 JSON
// (docs/observability.md). CI's perf-smoke job gates on this schema — and,
// with --threads N, on the parallel pipeline actually engaging (the profile
// reports threads_used) — not on timings. --smoke --engine prints instead
// the one profile of the same query in engine mode, whose interpreted
// kurtosis reads the table in place.
int RunSmoke(int threads, bool engine) {
  Schema schema;
  SUDAF_CHECK(schema.AddField({"g", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"x", DataType::kFloat64}).ok());
  auto table = std::make_unique<Table>(std::move(schema));
  Rng rng(7);
  for (int i = 0; i < 50'000; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(rng.NextBelow(64)));
    table->column(1).AppendFloat64(rng.NextDoubleIn(0.5, 9.5));
  }
  table->FinishBulkAppend();
  Catalog catalog;
  catalog.PutTable("t", std::move(table));
  ExecOptions exec;
  if (threads > 1) {
    exec.parallel = true;
    exec.num_threads = threads;
    // Small morsels so a 50k-row smoke input still splits into enough
    // chunks for every requested worker to claim one.
    exec.morsel_size = 4096;
  }
  SudafSession session(&catalog, SessionOptions{}.set_exec(exec));
  const char* sql = "SELECT g, kurtosis(x), var(x) FROM t GROUP BY g";
  for (int run = 0; run < (engine ? 1 : 2); ++run) {
    auto result = session.Execute(
        sql, engine ? ExecMode::kEngine : ExecMode::kSudafShare);
    SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
    std::printf("%s\n", result->ProfileJson().c_str());
  }
  return 0;
}

// The "panels" case: dashboard's fused pass in isolation.
struct PanelsResult {
  int64_t rows = 0;
  int32_t groups = 0;
  double fused_ms = 0;
  double ns_per_row = 0;
  int channels = 0;
  int slots = 0;
  int log_product_channels = 0;
};

PanelsResult RunPanels() {
  constexpr int64_t kRows = 250'000;
  constexpr int32_t kPanelGroups = 1'000;
  Column x{DataType::kFloat64};
  std::vector<int32_t> gids(kRows);
  Rng rng(11);
  x.Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    x.AppendFloat64(rng.NextLogNormal(3.0, 1.0));
    gids[i] = static_cast<int32_t>(rng.NextBelow(kPanelGroups));
  }
  ColumnBinder binder = [&x](const std::string& name) -> Result<BoundColumn> {
    if (name != "x") return Status::InvalidArgument("no column " + name);
    return BoundColumn{&x, nullptr, 0};
  };
  std::vector<ExprPtr> inputs;
  std::vector<StateBatchRequest> requests = {{AggOp::kCount, nullptr}};
  const std::pair<AggOp, const char*> kChannels[] = {
      {AggOp::kSum, "x"},          {AggOp::kSum, "x^2"},
      {AggOp::kSum, "x^3"},        {AggOp::kSum, "x^4"},
      {AggOp::kSum, "ln(abs(x))"}, {AggOp::kProd, "sgn(x)"},
      {AggOp::kSum, "x^-1"}};
  for (const auto& [op, text] : kChannels) {
    auto parsed = ParseExpression(text);
    SUDAF_CHECK_MSG(parsed.ok(), parsed.status().ToString());
    inputs.push_back(std::move(*parsed));
    requests.push_back({op, inputs.back().get()});
  }
  PanelsResult out;
  out.rows = kRows;
  out.groups = kPanelGroups;
  MetricsRegistry metrics;
  ExecOptions opts;
  opts.metrics = &metrics;
  out.fused_ms = Best(9, [&] {
    double t0 = NowMs();
    auto result =
        ComputeStateBatch(requests, binder, gids, kPanelGroups, opts);
    double ms = NowMs() - t0;
    SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
    g_sink = (*result)[5][0];
    return ms;
  });
  out.ns_per_row = out.fused_ms * 1e6 / static_cast<double>(kRows);
  out.channels = PerPass(metrics, "sudaf.fused.channels");
  out.slots = PerPass(metrics, "sudaf.fused.slots");
  out.log_product_channels =
      PerPass(metrics, "sudaf.fused.log_product_channels");
  return out;
}

std::string PanelsJson(const PanelsResult& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"rows\": %lld, \"groups\": %d, \"fused_ms\": %.3f, "
                "\"ns_per_row\": %.3f, \"channels\": %d, \"slots\": %d, "
                "\"log_product_channels\": %d}",
                static_cast<long long>(p.rows), p.groups, p.fused_ms,
                p.ns_per_row, p.channels, p.slots, p.log_product_channels);
  return buf;
}

void PrintPanels(const PanelsResult& p) {
  std::printf("dashboard panel channels, %lld rows in %d groups: %.3f ms, "
              "%.2f ns/row, %d channels (%d log-free), %d slots\n",
              static_cast<long long>(p.rows), p.groups, p.fused_ms,
              p.ns_per_row, p.channels, p.log_product_channels, p.slots);
}

// The "terminate" case: the terminate phase of perfbench's append
// queries in isolation. Each select list's states are computed once over
// a synthetic milan_data (10k square_ids, 20 lognormal rows each); the
// timed part is AssembleRewrittenResult over all 10k output rows, which
// runs the plan's compiled terminate program and appends the columns.
struct TerminateCase {
  std::string items;
  double ms = 0;
  double ns_per_group = 0;
  int slots = 0;
  int shared_slots = 0;
};

struct TerminateResult {
  int32_t groups = 0;
  std::vector<TerminateCase> cases;
};

TerminateResult RunTerminate() {
  constexpr int32_t kTermGroups = 10'000;
  constexpr int kRowsPerGroup = 20;
  Schema schema;
  SUDAF_CHECK(schema.AddField({"square_id", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"internet_traffic", DataType::kFloat64}).ok());
  auto table = std::make_unique<Table>(std::move(schema));
  Rng rng(13);
  for (int i = 0; i < kTermGroups * kRowsPerGroup; ++i) {
    table->column(0).AppendInt64(i % kTermGroups);
    table->column(1).AppendFloat64(rng.NextLogNormal(1.0, 1.0));
  }
  table->FinishBulkAppend();
  Catalog catalog;
  catalog.PutTable("milan_data", std::move(table));
  SudafSession session(&catalog);

  const std::string t = "internet_traffic";
  const std::vector<std::pair<std::string, std::string>> lists = {
      {"avg, var, stddev",
       "avg(" + t + "), var(" + t + "), stddev(" + t + ")"},
      {"sum, count", "sum(" + t + "), count(" + t + ")"},
      {"avg, kurtosis", "avg(" + t + "), kurtosis(" + t + ")"},
  };
  TerminateResult out;
  out.groups = kTermGroups;
  for (const auto& [label, items] : lists) {
    auto stmt = ParseSelect("SELECT square_id, " + items +
                            " FROM milan_data GROUP BY square_id"
                            " ORDER BY square_id");
    SUDAF_CHECK_MSG(stmt.ok(), stmt.status().ToString());
    auto rewritten = RewriteQuery(**stmt, session.library());
    SUDAF_CHECK_MSG(rewritten.ok(), rewritten.status().ToString());
    std::string states_sql = "SELECT square_id";
    for (const AggStateDef& state : rewritten->form().states) {
      states_sql += ", " + state.ToString();
    }
    states_sql += " FROM milan_data GROUP BY square_id ORDER BY square_id";
    auto states = session.Execute(states_sql, ExecMode::kSudafShare);
    SUDAF_CHECK_MSG(states.ok(), states.status().ToString());
    const Table& st = *states->table;
    Schema key_schema;
    SUDAF_CHECK(key_schema.AddField({"square_id", DataType::kInt64}).ok());
    Table keys(std::move(key_schema));
    keys.column(0).AppendColumn(st.column(0));
    keys.FinishBulkAppend();
    std::vector<std::vector<double>> columns;
    for (int c = 1; c < st.num_columns(); ++c) {
      columns.push_back(st.column(c).doubles());
    }
    const OutputRows rows =
        PlanOutputRows(*rewritten, **stmt, keys, kTermGroups);
    TerminateCase tc;
    tc.items = label;
    tc.slots = rewritten->plan->terminate.num_evaluated_slots();
    tc.shared_slots = rewritten->plan->terminate.num_shared_slots();
    tc.ms = Best(51, [&] {
      double t0 = NowMs();
      auto result =
          AssembleRewrittenResult(*rewritten, **stmt, keys, rows, columns);
      double ms = NowMs() - t0;
      SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
      g_sink = (*result)->column(1).GetFloat64(0);
      return ms;
    });
    tc.ns_per_group = tc.ms * 1e6 / kTermGroups;
    out.cases.push_back(tc);
  }
  return out;
}

std::string TerminateJson(const TerminateResult& r) {
  std::string json = "{\"groups\": " + std::to_string(r.groups) +
                     ", \"select_lists\": [";
  for (size_t i = 0; i < r.cases.size(); ++i) {
    const TerminateCase& c = r.cases[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"items\": \"%s\", \"ms\": %.4f, "
                  "\"ns_per_group\": %.2f, \"slots\": %d, "
                  "\"shared_slots\": %d}",
                  i == 0 ? "" : ", ", c.items.c_str(), c.ms, c.ns_per_group,
                  c.slots, c.shared_slots);
    json += buf;
  }
  return json + "]}";
}

void PrintTerminate(const TerminateResult& r) {
  for (const TerminateCase& c : r.cases) {
    std::printf("terminate %-18s over %d groups: %.4f ms, %.2f ns/group, "
                "%d slots (%d shared)\n",
                c.items.c_str(), r.groups, c.ms, c.ns_per_group, c.slots,
                c.shared_slots);
  }
}

// First line of a command's output, or "unknown".
std::string CommandLine(const char* cmd) {
  std::string line = "unknown";
  if (FILE* p = popen(cmd, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      line = buf;
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
    }
    pclose(p);
  }
  return line;
}

// The build and machine the numbers came from.
std::string FingerprintJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string out = "{\"git\": \"" +
                    CommandLine("git describe --always --dirty 2>/dev/null") +
                    "\", \"compiler\": \"" SUDAF_BENCH_COMPILER
                    "\", \"build_type\": \"" SUDAF_BENCH_BUILD_TYPE
                    "\", \"cpu\": \"" + cpu + "\", \"hardware_threads\": " +
                    std::to_string(std::thread::hardware_concurrency()) + "}";
  return out;
}

// Bitwise table comparison for the thread-sweep identity check.
bool TablesBitIdentical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      double da = a.column(c).GetNumeric(r);
      double db = b.column(c).GetNumeric(r);
      if (std::memcmp(&da, &db, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool engine = false;
  bool panels_only = false;
  bool terminate_only = false;
  int threads = 1;
  std::string out =
      std::string(SUDAF_BENCH_OUT_DIR) + "/BENCH_fused_states.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--engine") {
      engine = true;
    } else if (arg == "--panels") {
      panels_only = true;
    } else if (arg == "--terminate") {
      terminate_only = true;
    } else if (arg == "--threads" && a + 1 < argc) {
      threads = std::atoi(argv[++a]);
    } else if (arg == "--out" && a + 1 < argc) {
      out = argv[++a];
    }
  }
  if (smoke) return RunSmoke(threads, engine);
  FILE* json = std::fopen(out.c_str(), "w");
  SUDAF_CHECK_MSG(json != nullptr, "cannot open " + out);
  std::fprintf(json, "{\n  \"fingerprint\": %s,\n",
               FingerprintJson().c_str());
  if (panels_only) {
    const PanelsResult panels = RunPanels();
    PrintPanels(panels);
    std::fprintf(json, "  \"panels\": %s\n}\n", PanelsJson(panels).c_str());
    std::fclose(json);
    return 0;
  }
  if (terminate_only) {
    const TerminateResult terminate = RunTerminate();
    PrintTerminate(terminate);
    std::fprintf(json, "  \"terminate\": %s\n}\n",
                 TerminateJson(terminate).c_str());
    std::fclose(json);
    return 0;
  }
  std::fprintf(json, "  \"groups\": %d,\n  \"hardware_threads\": %u,\n",
               kGroups, std::thread::hardware_concurrency());

  // Sweep 1: number of states at 1M rows, single-threaded.
  std::printf("power-sum states at 1M rows, single-threaded\n");
  std::printf("%8s %12s %12s %10s %8s %8s\n", "states", "legacy (ms)",
              "fused (ms)", "speedup", "slots", "shared");
  std::fprintf(json, "  \"state_sweep\": [\n");
  {
    Data data(1'000'000);
    const int reps = RepsFor(1'000'000);
    bool first = true;
    for (int k : {1, 2, 3, 4, 5, 6, 8, 10, 12, 16}) {
      std::vector<ExprPtr> inputs = MakeInputs(k);
      double legacy =
          Best(reps, [&] { return TimeLegacy(data, k, false); });
      MetricsRegistry metrics;
      double fused = Best(
          reps, [&] { return TimeFused(data, inputs, false, 1, &metrics); });
      const int slots = PerPass(metrics, "sudaf.fused.slots");
      const int shared_slots = PerPass(metrics, "sudaf.fused.shared_slots");
      std::printf("%8d %12.2f %12.2f %9.2fx %8d %8d\n", k, legacy, fused,
                  legacy / fused, slots, shared_slots);
      std::fprintf(json,
                   "%s    {\"states\": %d, \"legacy_ms\": %.3f, "
                   "\"fused_ms\": %.3f, \"speedup\": %.3f, \"slots\": %d, "
                   "\"shared_slots\": %d}",
                   first ? "" : ",\n", k, legacy, fused, legacy / fused,
                   slots, shared_slots);
      first = false;
    }
    std::fprintf(json, "\n  ],\n");
  }

  // Sweep 2: rows for the kurtosis state set (count, x, x^2, x^3, x^4).
  std::printf("\nkurtosis states (n, s1..s4) vs. rows, single-threaded\n");
  std::printf("%12s %12s %12s %10s\n", "rows", "legacy (ms)", "fused (ms)",
              "speedup");
  std::fprintf(json, "  \"row_sweep\": [\n");
  double kurtosis_1m_speedup = 0;
  {
    std::vector<ExprPtr> inputs = MakeInputs(4);
    bool first = true;
    for (int64_t rows : {1'000'000, 2'000'000, 4'000'000, 10'000'000}) {
      Data data(rows);
      const int reps = RepsFor(rows);
      double legacy =
          Best(reps, [&] { return TimeLegacy(data, 4, true); });
      double fused =
          Best(reps, [&] { return TimeFused(data, inputs, true, 1, nullptr); });
      if (rows == 1'000'000) kurtosis_1m_speedup = legacy / fused;
      std::printf("%12lld %12.2f %12.2f %9.2fx\n",
                  static_cast<long long>(rows), legacy, fused,
                  legacy / fused);
      std::fprintf(json,
                   "%s    {\"rows\": %lld, \"legacy_ms\": %.3f, "
                   "\"fused_ms\": %.3f, \"speedup\": %.3f}",
                   first ? "" : ",\n", static_cast<long long>(rows), legacy,
                   fused, legacy / fused);
      first = false;
    }
    std::fprintf(json, "\n  ],\n");
  }

  std::printf("\n");
  const PanelsResult panels = RunPanels();
  PrintPanels(panels);
  std::fprintf(json, "  \"panels\": %s,\n", PanelsJson(panels).c_str());
  const TerminateResult terminate = RunTerminate();
  PrintTerminate(terminate);
  std::fprintf(json, "  \"terminate\": %s,\n",
               TerminateJson(terminate).c_str());

  // Sweep 3: end-to-end thread scaling through the full pipeline — a real
  // session query with a WHERE clause at 4M rows, so the filter and the
  // fused pass run morsel-parallel; binding and grouping are serial.
  // Per-phase times come from the query trace (the same spans ProfileJson
  // reports). cpu_ms is the process CPU time of the query
  // (CLOCK_PROCESS_CPUTIME_ID, every thread), so cpu_ratio_vs_1t is the
  // work the extra threads add whatever cores the host delivers. Every
  // thread count's result table is checked bit-identical against the
  // 1-thread run.
  std::printf("\nfull-pipeline thread sweep, kurtosis at 4M rows + WHERE\n");
  std::printf("%8s %10s %10s %10s %10s %10s %8s %10s %8s %6s %5s\n",
              "threads", "total(ms)", "filter", "gather", "group", "fused",
              "vs 1T", "cpu(ms)", "cpu/1T", "used", "bit=");
  std::fprintf(json, "  \"thread_sweep\": [\n");
  {
    Rng rng(7);
    Schema schema;
    SUDAF_CHECK(schema.AddField({"g", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"x", DataType::kFloat64}).ok());
    SUDAF_CHECK(schema.AddField({"y", DataType::kFloat64}).ok());
    auto table = std::make_unique<Table>(std::move(schema));
    constexpr int64_t kSweepRows = 4'000'000;
    for (int64_t i = 0; i < kSweepRows; ++i) {
      table->column(0).AppendInt64(static_cast<int64_t>(rng.NextBelow(kGroups)));
      table->column(1).AppendFloat64(rng.NextDoubleIn(0.5, 9.5));
      table->column(2).AppendFloat64(rng.NextDoubleIn(-2.0, 2.0));
    }
    table->FinishBulkAppend();
    Catalog catalog;
    catalog.PutTable("t", std::move(table));
    const char* sql =
        "SELECT g, kurtosis(x), var(x) FROM t WHERE y > -1.0 GROUP BY g";

    const int reps = RepsFor(kSweepRows);
    auto cpu_ms = [] {
      timespec ts;
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return ts.tv_sec * 1e3 + ts.tv_nsec * 1e-6;
    };
    double base = 0;
    double base_cpu = 0;
    bool first = true;
    std::unique_ptr<Table> one_thread_result;
    for (int threads : {1, 2, 4, 8}) {
      ExecOptions exec;
      exec.parallel = threads > 1;
      exec.num_threads = threads;
      QueryResult best;
      double best_ms = 0;
      double best_cpu = 0;
      for (int r = 0; r < reps; ++r) {
        // Fresh session per rep: a warm cache would skip the pipeline.
        SudafSession session(&catalog, SessionOptions{}.set_exec(exec));
        const double cpu0 = cpu_ms();
        auto result = session.Execute(sql, ExecMode::kSudafShare);
        const double cpu = cpu_ms() - cpu0;
        SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
        if (r == 0 || cpu < best_cpu) best_cpu = cpu;
        if (r == 0 || result->stats.total_ms < best_ms) {
          best_ms = result->stats.total_ms;
          best = std::move(*result);
        }
      }
      if (threads == 1) {
        base = best_ms;
        base_cpu = best_cpu;
        one_thread_result = std::move(best.table);
      }
      const ExecStats& s = best.stats;
      double fused_ms = best.trace != nullptr
                            ? best.trace->SpanMs("fused_pass")
                            : s.states_ms;
      bool identical =
          threads == 1 ||
          TablesBitIdentical(*one_thread_result, *best.table);
      std::printf(
          "%8d %10.2f %10.2f %10.2f %10.2f %10.2f %7.2fx %10.2f %7.2fx %6d "
          "%5s\n",
          threads, best_ms, s.filter_ms, s.gather_ms, s.group_ms, fused_ms,
          base / best_ms, best_cpu, best_cpu / base_cpu, s.fused_threads,
          identical ? "yes" : "NO");
      std::fprintf(json,
                   "%s    {\"threads\": %d, \"total_ms\": %.3f, "
                   "\"filter_ms\": %.3f, \"gather_ms\": %.3f, "
                   "\"group_ms\": %.3f, \"fused_ms\": %.3f, "
                   "\"speedup_vs_1t\": %.3f, \"cpu_ms\": %.3f, "
                   "\"cpu_ratio_vs_1t\": %.3f, \"threads_used\": %d, "
                   "\"bit_identical\": %s}",
                   first ? "" : ",\n", threads, best_ms, s.filter_ms,
                   s.gather_ms, s.group_ms, fused_ms, base / best_ms,
                   best_cpu, best_cpu / base_cpu, s.fused_threads,
                   identical ? "true" : "false");
      first = false;
      SUDAF_CHECK_MSG(identical,
                      "thread sweep produced a non-identical result table");
    }
    std::fprintf(json, "\n  ],\n");
  }

  std::fprintf(json, "  \"kurtosis_1m_speedup\": %.3f\n}\n",
               kurtosis_1m_speedup);
  std::fclose(json);
  std::printf(
      "\nkurtosis @ 1M rows single-threaded: fused is %.2fx the legacy "
      "path\nwrote %s\n",
      kurtosis_1m_speedup, out.c_str());
  return kurtosis_1m_speedup >= 2.0 ? 0 : 1;
}
