// Ablation for the rewrite gain: why do built-in aggregates beat hardcoded
// UDAFs? Row-at-a-time boxed IUME execution versus vectorized kernels over
// the same data, at several input sizes. The ratio here is the headroom
// behind Figures 1, 2, 8 and 9.

#include <benchmark/benchmark.h>

#include <cmath>

#include "agg/builtin_kernels.h"
#include "agg/udaf.h"
#include "bench_support/grouped_state.h"
#include "common/rng.h"
#include "engine/aggregation.h"
#include "expr/parser.h"
#include "storage/column.h"
#include "sudaf/rewriter.h"

namespace sudaf {
namespace {

// qm written directly against the IUME interface, compiled: state
// (n, Σx²) as boxed Values, no expression interpretation.
class CompiledQm : public Udaf {
 public:
  std::string name() const override { return "qm"; }
  int num_args() const override { return 1; }

  std::vector<Value> Initialize() const override {
    return std::vector<Value>(2, Value(0.0));
  }

  void Update(std::vector<Value>* state,
              const std::vector<Value>& args) const override {
    const double x = args[0].AsDouble();
    (*state)[0] = Value((*state)[0].AsDouble() + 1.0);
    (*state)[1] = Value((*state)[1].AsDouble() + x * x);
  }

  void Merge(std::vector<Value>* state,
             const std::vector<Value>& other) const override {
    for (size_t i = 0; i < state->size(); ++i) {
      (*state)[i] = Value((*state)[i].AsDouble() + other[i].AsDouble());
    }
  }

  Result<Value> Evaluate(const std::vector<Value>& state) const override {
    return Value(std::sqrt(state[1].AsDouble() / state[0].AsDouble()));
  }
};

// qm as the engine baseline runs it: derived from the library definition.
std::unique_ptr<Udaf> InterpretedQm() {
  auto call = ParseExpression("qm(x)");
  SUDAF_CHECK(call.ok());
  auto body = UdafLibrary::Standard().Expand(**call);
  SUDAF_CHECK(body.ok());
  auto udaf = DeriveUdaf("qm", {"x"}, **body);
  SUDAF_CHECK(udaf.ok());
  return std::move(*udaf);
}

struct Fixture {
  Column column{DataType::kFloat64};
  std::vector<double> values;
  std::vector<int32_t> group_ids;
  CompiledQm compiled;
  std::unique_ptr<Udaf> interpreted = InterpretedQm();

  explicit Fixture(int64_t n) {
    Rng rng(4242);
    values.reserve(n);
    group_ids.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      double v = rng.NextDoubleIn(0.5, 9.5);
      values.push_back(v);
      column.AppendFloat64(v);
      group_ids.push_back(static_cast<int32_t>(rng.NextBelow(16)));
    }
  }
};

// qm through the IUME interface: boxed values, virtual dispatch per row —
// the hardcoded-UDAF execution shape.
void BM_HardcodedUdafRowAtATime(benchmark::State& state) {
  Fixture fixture(state.range(0));
  ExecOptions opts;
  for (auto _ : state) {
    auto result = RunHardcodedUdaf(fixture.compiled,
                                   {BoundColumn{&fixture.column}},
                                   fixture.group_ids, 16, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HardcodedUdafRowAtATime)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

// qm through the *interpreted* UDAF path (PL/pgSQL shape): per-row
// expression interpretation over boxed values — the engine baseline of the
// figure benchmarks.
void BM_InterpretedUdafRowAtATime(benchmark::State& state) {
  Fixture fixture(state.range(0));
  ExecOptions opts;
  for (auto _ : state) {
    auto result = RunHardcodedUdaf(*fixture.interpreted,
                                   {BoundColumn{&fixture.column}},
                                   fixture.group_ids, 16, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InterpretedUdafRowAtATime)->Arg(10'000)->Arg(100'000);

// The same qm as SUDAF computes it: two vectorized grouped states (Σx²,
// count) + a terminating sqrt per group.
void BM_VectorizedStates(benchmark::State& state) {
  Fixture fixture(state.range(0));
  ExecOptions opts;
  for (auto _ : state) {
    std::vector<double> squared(fixture.values.size());
    for (size_t i = 0; i < fixture.values.size(); ++i) {
      squared[i] = fixture.values[i] * fixture.values[i];
    }
    std::vector<double> sum2 = bench::ComputeGroupedState(
        AggOp::kSum, squared, fixture.group_ids, 16, opts);
    std::vector<double> count = bench::ComputeGroupedState(
        AggOp::kCount, {}, fixture.group_ids, 16, opts);
    std::vector<double> qm(16);
    for (int g = 0; g < 16; ++g) qm[g] = std::sqrt(sum2[g] / count[g]);
    benchmark::DoNotOptimize(qm);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VectorizedStates)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

// Cache-hit execution: what remains when every state is served from the
// cache — the two-orders-of-magnitude regime.
void BM_CacheHitFinalization(benchmark::State& state) {
  const int64_t groups = state.range(0);
  std::vector<double> sum2(groups, 100.0);
  std::vector<double> count(groups, 10.0);
  for (auto _ : state) {
    std::vector<double> qm(groups);
    for (int64_t g = 0; g < groups; ++g) {
      qm[g] = std::sqrt(sum2[g] / count[g]);
    }
    benchmark::DoNotOptimize(qm);
  }
}
BENCHMARK(BM_CacheHitFinalization)->Arg(16)->Arg(1024)->Arg(16384);

}  // namespace
}  // namespace sudaf

BENCHMARK_MAIN();
