// google-benchmark micro suite: throughput of the core kernels (PWL exp,
// reciprocal, tile execution, scheduler, weighted-sum merges, golden model).
#include <benchmark/benchmark.h>

#include "attention/golden.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "numeric/quantize.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

void BM_PwlExp(benchmark::State& state) {
    const PwlExp unit;
    ScoreRaw x = -2048;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.exp_raw(x));
        x = static_cast<ScoreRaw>((x + 37) % 4096);
    }
}
BENCHMARK(BM_PwlExp);

void BM_Reciprocal(benchmark::State& state) {
    const Reciprocal unit;
    SumRaw w = 12345;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.inv_raw(w));
        w = (w * 2654435761ull) % (1ull << 36) + 1;
    }
}
BENCHMARK(BM_Reciprocal);

void BM_Schedule(benchmark::State& state) {
    const auto pattern = longformer(static_cast<int>(state.range(0)), 64, 1);
    const ArrayGeometry geometry;
    for (auto _ : state) {
        benchmark::DoNotOptimize(schedule(pattern, geometry, 64, {}));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Schedule)->Arg(512)->Arg(1024)->Arg(2048)->Complexity(benchmark::oN);

struct TileFixture {
    ArrayGeometry geometry;
    SchedulePlan plan;
    Matrix<std::int8_t> q, k, v;
    PwlExp exp_unit;
    Reciprocal recip;

    TileFixture() {
        plan = schedule(longformer(256, 64, 1), geometry, 64, {});
        Rng rng(1);
        q = quantize<InputFx>(random_matrix(256, 64, rng, 0.0, 0.8));
        k = quantize<InputFx>(random_matrix(256, 64, rng, 0.0, 0.8));
        v = quantize<InputFx>(random_matrix(256, 64, rng, 0.0, 0.8));
    }
};

void BM_TileExecutorFunctional(benchmark::State& state) {
    const TileFixture f;
    const TileExecutor exec(f.exp_unit, f.recip, f.q, f.k, f.v);
    PartArena parts;
    PartScratch scratch;
    ActivityStats activity;
    std::size_t i = 0;
    for (auto _ : state) {
        parts.reset();
        exec.run(f.plan.tiles[i % f.plan.tiles.size()], parts, activity, scratch);
        benchmark::DoNotOptimize(parts);
        ++i;
    }
}
BENCHMARK(BM_TileExecutorFunctional);

void BM_TileCycleAccurate(benchmark::State& state) {
    const TileFixture f;
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip, f.q,
                                   f.k, f.v);
    PartArena parts;
    PartScratch scratch;
    ActivityStats activity;
    std::size_t i = 0;
    for (auto _ : state) {
        parts.reset();
        array.run(f.plan.tiles[i % f.plan.tiles.size()], parts, activity, scratch);
        benchmark::DoNotOptimize(parts);
        ++i;
    }
}
BENCHMARK(BM_TileCycleAccurate);

void BM_WeightedSumMerge(benchmark::State& state) {
    const Reciprocal recip;
    TilePart part;
    part.query = 0;
    part.weight = 123456;
    part.out_q.assign(64, 1000);
    WeightedSumModule wsm(1, 64, recip);
    for (auto _ : state) {
        wsm.merge(part);
        benchmark::DoNotOptimize(wsm);
    }
}
BENCHMARK(BM_WeightedSumMerge);

void BM_GoldenDenseAttention(benchmark::State& state) {
    Rng rng(1);
    const int n = static_cast<int>(state.range(0));
    const auto q = random_matrix(n, 64, rng);
    const auto k = random_matrix(n, 64, rng);
    const auto v = random_matrix(n, 64, rng);
    for (auto _ : state) benchmark::DoNotOptimize(dense_attention(q, k, v, 0.125f));
    state.SetComplexityN(n);
}
BENCHMARK(BM_GoldenDenseAttention)->Arg(64)->Arg(128)->Arg(256)->Complexity(benchmark::oNSquared);

void BM_EngineSmallLongformer(benchmark::State& state) {
    SaloConfig config;
    const SaloEngine engine(config);
    const auto w = longformer_small(256, 64, 1, 64, 1);
    const auto qkv = make_qkv(w, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run_head(*engine.compile(w.pattern, w.head_dim),
                                                 qkv.q[0], qkv.k[0], qkv.v[0], w.scale()));
    }
}
BENCHMARK(BM_EngineSmallLongformer);

}  // namespace
}  // namespace salo

BENCHMARK_MAIN();
