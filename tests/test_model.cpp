#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "model/baseline.hpp"
#include "model/energy.hpp"
#include "model/salo_model.hpp"
#include "model/sanger.hpp"
#include "model/synthesis.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

SaloConfig small_config() {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    return c;
}

TEST(SaloModel, MatchesEngineFunctionalCycles) {
    // The analytic model and the engine must agree exactly — same formulas,
    // same load-overlap accounting.
    const auto workload = longformer_small(96, 16, 1, 8, 1);
    const SaloConfig config = small_config();
    const SaloEngine engine(config);
    const auto qkv = make_qkv(workload, 3);
    const auto run = engine.run(*engine.compile(workload.pattern, workload.head_dim), qkv.q,
                                qkv.k, qkv.v, workload.scale());
    const auto plan = schedule(workload.pattern, config.geometry, workload.head_dim,
                               config.schedule_options);
    const SimStats estimate = estimate_head_stats(plan, config);
    EXPECT_EQ(estimate.cycles, run.stats.cycles);
    EXPECT_EQ(estimate.tiles, run.stats.tiles);
    EXPECT_EQ(estimate.stage_totals.total(), run.stats.stage_totals.total());
    EXPECT_EQ(estimate.activity.mac_ops, run.stats.activity.mac_ops);
    EXPECT_EQ(estimate.activity.exp_ops, run.stats.activity.exp_ops);
}

TEST(SaloModel, PipeliningMatchesEngineAndReducesCycles) {
    const auto workload = longformer_small(96, 16, 1, 8, 1);
    SaloConfig config = small_config();
    config.tile_pipelining = true;
    const SaloEngine engine(config);
    const auto qkv = make_qkv(workload, 4);
    const auto run = engine.run(*engine.compile(workload.pattern, workload.head_dim), qkv.q,
                                qkv.k, qkv.v, workload.scale());
    const auto plan = schedule(workload.pattern, config.geometry, workload.head_dim,
                               config.schedule_options);
    EXPECT_EQ(estimate_head_stats(plan, config).cycles, run.stats.cycles);

    SaloConfig off = small_config();
    EXPECT_LT(run.stats.cycles,
              estimate_head_stats(plan, off).cycles);
}

TEST(SaloModel, LayerEstimateScalesWithHeads) {
    SaloConfig config;  // full-size 32x32 array
    const auto w1 = longformer_small(512, 64, 1, 64, 1);
    const auto w4 = longformer_small(512, 64, 4, 64, 1);
    const auto e1 = estimate_layer(w1, config);
    const auto e4 = estimate_layer(w4, config);
    EXPECT_EQ(e4.stats.cycles, 4 * e1.stats.cycles);
}

TEST(SaloModel, LongformerLatencyInExpectedRange) {
    // Full-size Longformer layer: the paper's speedups imply a SALO latency
    // of a few milliseconds at 1 GHz.
    const auto estimate = estimate_layer(longformer_base_4096(), SaloConfig{});
    EXPECT_GT(estimate.latency_ms, 1.0);
    EXPECT_LT(estimate.latency_ms, 20.0);
}

TEST(SaloModel, QuadraticWorkloadScalesQuadratically) {
    SaloConfig config;
    const auto t1 = estimate_layer(bert_base(512), config).latency_ms;
    const auto t2 = estimate_layer(bert_base(1024), config).latency_ms;
    EXPECT_NEAR(t2 / t1, 4.0, 0.6);
}

TEST(Baseline, GpuDenseMatchesPaperAnchors) {
    // Paper §2.1: 9.20 ms at n=2048 and ~16x more at n=8192 on a 1080Ti.
    const auto gpu = gtx_1080ti();
    EXPECT_NEAR(dense_attention_ms(gpu, 2048, 768), 9.20, 1.0);
    const double r = dense_attention_ms(gpu, 8192, 768) / dense_attention_ms(gpu, 2048, 768);
    EXPECT_NEAR(r, 16.0, 1.0);
}

TEST(Baseline, CpuSlowerThanGpu) {
    const auto cpu = xeon_e5_2630_v3();
    const auto gpu = gtx_1080ti();
    EXPECT_GT(dense_attention_ms(cpu, 2048, 768), dense_attention_ms(gpu, 2048, 768) * 8);
    for (const auto& w : paper_workloads())
        EXPECT_GT(sparse_attention_ms(cpu, w).total_ms(),
                  sparse_attention_ms(gpu, w).total_ms());
}

TEST(Baseline, SparseCheaperThanDenseForVeryLongSequences) {
    // Framework sliding-window kernels carry heavy constant factors (which
    // is why the paper's GPU Longformer numbers are slower than ideal), but
    // their linear scaling must beat dense quadratic scaling eventually —
    // Longformer supports up to 16384 tokens.
    const auto gpu = gtx_1080ti();
    const auto lf16k = longformer_small(16384, 512, 12, 64, 1);
    EXPECT_LT(sparse_attention_ms(gpu, lf16k).total_ms(),
              dense_attention_ms(gpu, 16384, 768));
    // And the crossover is real: at n=2048 dense is still competitive.
    const auto lf2k = longformer_small(2048, 512, 12, 64, 1);
    EXPECT_GT(sparse_attention_ms(gpu, lf2k).total_ms(),
              dense_attention_ms(gpu, 2048, 768));
}

TEST(Baseline, ImpliedPowersPositiveAndOrdered) {
    const auto cpu = xeon_e5_2630_v3();
    const auto gpu = gtx_1080ti();
    for (const auto& w : paper_workloads()) {
        EXPECT_GT(implied_power_w(cpu, w.name), 0.0);
        EXPECT_GT(implied_power_w(gpu, w.name), 0.0);
        // The paper's GPU energy numbers imply a higher draw than CPU's.
        EXPECT_GT(implied_power_w(gpu, w.name), implied_power_w(cpu, w.name));
    }
}

TEST(Sanger, UtilizationInterpolatesPaperRange) {
    EXPECT_NEAR(sanger_utilization(0.05), 0.55, 1e-9);
    EXPECT_NEAR(sanger_utilization(0.30), 0.75, 1e-9);
    EXPECT_NEAR(sanger_utilization(0.175), 0.65, 1e-9);
    // Clamped outside the quoted range.
    EXPECT_NEAR(sanger_utilization(0.01), 0.55, 1e-9);
    EXPECT_NEAR(sanger_utilization(0.9), 0.75, 1e-9);
}

TEST(Sanger, PredictionIsQuadratic) {
    SangerConfig config;
    config.utilization = 0.65;  // pin utilization to isolate scaling
    const auto small = sanger_estimate(config, longformer_small(1024, 128, 1, 64, 1));
    const auto big = sanger_estimate(config, longformer_small(2048, 128, 1, 64, 1));
    EXPECT_NEAR(big.prediction_cycles / small.prediction_cycles, 4.0, 0.01);
    // While the attention part is linear in n.
    EXPECT_NEAR(big.attention_cycles / small.attention_cycles, 2.0, 0.05);
}

TEST(Sanger, AutoUtilizationTracksSparsity) {
    SangerConfig config;  // utilization = 0 -> derive from sparsity
    const auto sparse = sanger_estimate(config, longformer_small(2048, 128, 1, 64, 1));
    const auto dense = sanger_estimate(config, longformer_small(2048, 512, 1, 64, 1));
    // Equal nnz-per-window ratio but different sparsity: the denser pattern
    // gets better utilization, so cycles grow sublinearly in window size.
    EXPECT_LT(dense.attention_cycles / sparse.attention_cycles, 4.0);
}

TEST(Sanger, SaloFasterOnLongformer) {
    const auto workload = longformer_base_4096();
    const auto sanger = sanger_estimate(SangerConfig{}, workload);
    const auto salo = estimate_layer(workload, SaloConfig{});
    const double speedup =
        sanger.latency_ms(1.0) / salo.latency_ms;
    EXPECT_GT(speedup, 1.0);
    EXPECT_LT(speedup, 3.0);  // paper: 1.33x
}

TEST(Synthesis, MatchesTable1Totals) {
    const auto report = synthesize(ArrayGeometry{});
    EXPECT_NEAR(report.total_area_mm2(), 4.56, 0.10);
    EXPECT_NEAR(report.total_power_mw(), 532.66, 10.0);
    EXPECT_DOUBLE_EQ(report.frequency_ghz, 1.0);
}

TEST(Synthesis, ScalesWithArraySize) {
    ArrayGeometry half;
    half.rows = 16;
    half.cols = 16;
    const auto full = synthesize(ArrayGeometry{});
    const auto small = synthesize(half);
    EXPECT_LT(small.total_area_mm2(), full.total_area_mm2());
    EXPECT_LT(small.total_power_mw(), full.total_power_mw());
}

TEST(Synthesis, ComponentBreakdownSumsToTotal) {
    const auto report = synthesize(ArrayGeometry{});
    double area = 0.0, power = 0.0;
    for (const auto& c : report.components) {
        EXPECT_GE(c.area_mm2, 0.0);
        EXPECT_GE(c.power_mw, 0.0);
        area += c.area_mm2;
        power += c.power_mw;
    }
    EXPECT_DOUBLE_EQ(area, report.total_area_mm2());
    EXPECT_DOUBLE_EQ(power, report.total_power_mw());
}

TEST(Energy, ComparisonIsConsistent) {
    const auto cmp = compare_energy(longformer_base_4096(), gtx_1080ti(), SaloConfig{});
    EXPECT_GT(cmp.speedup(), 1.0);
    EXPECT_GT(cmp.energy_saving(), 1.0);
    EXPECT_NEAR(cmp.salo_power_w, 0.533, 0.02);
    EXPECT_DOUBLE_EQ(cmp.energy_saving(),
                     cmp.device_energy_mj() / cmp.salo_energy_mj());
}

}  // namespace
}  // namespace salo
