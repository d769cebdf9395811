// Functional simulator vs float golden model: for every supported pattern
// family, running the scheduled tiles through the bit-accurate datapath and
// merging with the weighted-sum module must reproduce masked attention up to
// quantization tolerance.
#include <gtest/gtest.h>

#include "attention/golden.hpp"
#include "common/rng.hpp"
#include "numeric/quantize.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

// End-to-end quantization tolerance: inputs are Q3.4 (step 1/16), outputs
// Q7.8; with |v| ~ 1.5 the softmax-weighted result is accurate to a few
// input steps.
constexpr double kTolerance = 0.12;

struct SimResult {
    Matrix<float> output;
    ActivityStats activity;
};

SimResult run_functional(const HybridPattern& pattern, const Matrix<float>& q,
                         const Matrix<float>& k, const Matrix<float>& v, float scale,
                         const ArrayGeometry& geometry,
                         PackingMode packing = PackingMode::kPacked) {
    ScheduleOptions options;
    options.packing = packing;
    const SchedulePlan plan = schedule(pattern, geometry, q.cols(), options);
    std::string error;
    EXPECT_TRUE(verify_coverage(pattern, plan, &error)) << error;

    Matrix<float> q_scaled = q;
    for (auto& x : q_scaled.data()) x *= scale;
    const auto qq = quantize<InputFx>(q_scaled);
    const auto kq = quantize<InputFx>(k);
    const auto vq = quantize<InputFx>(v);

    const PwlExp exp_unit;
    const Reciprocal recip_unit;
    const TileExecutor exec(exp_unit, recip_unit, qq, kq, vq);
    WeightedSumModule wsm(pattern.n(), q.cols(), recip_unit);
    SimResult result;
    PartArena parts;
    PartScratch scratch;
    for (const TileTask& tile : plan.tiles) {
        parts.reset();
        exec.run(tile, parts, result.activity, scratch);
        for (std::size_t i = 0; i < parts.used(); ++i) wsm.merge(parts.at(i));
    }
    result.output = wsm.finalize();
    return result;
}

/// Golden reference computed on the *quantized* inputs (so the comparison
/// isolates datapath error from input quantization error).
Matrix<float> golden_on_quantized(const HybridPattern& pattern, const Matrix<float>& q,
                                  const Matrix<float>& k, const Matrix<float>& v,
                                  float scale) {
    Matrix<float> q_scaled = q;
    for (auto& x : q_scaled.data()) x *= scale;
    const auto qr = quantize_roundtrip<InputFx>(q_scaled);
    const auto kr = quantize_roundtrip<InputFx>(k);
    const auto vr = quantize_roundtrip<InputFx>(v);
    return masked_attention(qr, kr, vr, 1.0f, pattern.attend_fn());
}

void expect_matches_golden(const HybridPattern& pattern, int d, std::uint64_t seed,
                           const ArrayGeometry& geometry,
                           PackingMode packing = PackingMode::kPacked) {
    Rng rng(seed);
    const auto q = random_matrix(pattern.n(), d, rng, 0.0, 0.8);
    const auto k = random_matrix(pattern.n(), d, rng, 0.0, 0.8);
    const auto v = random_matrix(pattern.n(), d, rng, 0.0, 0.8);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    const auto sim = run_functional(pattern, q, k, v, scale, geometry, packing);
    const auto gold = golden_on_quantized(pattern, q, k, v, scale);
    EXPECT_LT(max_abs_diff(sim.output, gold), kTolerance);
}

ArrayGeometry small_geometry(int rows = 8, int cols = 8) {
    ArrayGeometry g;
    g.rows = rows;
    g.cols = cols;
    return g;
}

TEST(Sim, SlidingWindowMatchesGolden) {
    expect_matches_golden(sliding_window(64, 8), 16, 1, small_geometry());
}

TEST(Sim, LongformerMatchesGolden) {
    expect_matches_golden(longformer(64, 8, 1), 16, 2, small_geometry());
}

TEST(Sim, LongformerTwoGlobalsMatchesGolden) {
    expect_matches_golden(longformer(48, 12, 2), 8, 3, small_geometry());
}

TEST(Sim, DilatedWindowMatchesGolden) {
    expect_matches_golden(dilated_window(64, -2, 2, 3), 8, 4, small_geometry());
}

TEST(Sim, Vil2dMatchesGolden) {
    expect_matches_golden(vil_2d(8, 8, 3, 3, 1), 8, 5, small_geometry());
}

TEST(Sim, Vil2dPerBandMatchesGolden) {
    expect_matches_golden(vil_2d(8, 8, 3, 3, 1), 8, 6, small_geometry(),
                          PackingMode::kPerBand);
}

TEST(Sim, StarTransformerMatchesGolden) {
    expect_matches_golden(star_transformer(40), 8, 7, small_geometry());
}

TEST(Sim, SparseTransformerStridedMatchesGolden) {
    expect_matches_golden(sparse_transformer_strided(48, 4), 8, 8, small_geometry());
}

TEST(Sim, SparseTransformerFixedMatchesGolden) {
    expect_matches_golden(sparse_transformer_fixed(40, 8), 8, 9, small_geometry());
}

TEST(Sim, AsymmetricWindowMatchesGolden) {
    expect_matches_golden(sliding_window_range(48, 0, 7), 8, 10, small_geometry());
}

TEST(Sim, NonSquareGeometry) {
    expect_matches_golden(longformer(64, 12, 1), 8, 11, small_geometry(4, 16));
    expect_matches_golden(longformer(64, 12, 1), 8, 12, small_geometry(16, 4));
}

TEST(Sim, WindowSplittingRenormalizes) {
    // Window of 24 split over 8 columns: three parts per query row, merged
    // by Eq. 2 — this is the core §4.2 correctness property.
    expect_matches_golden(sliding_window(64, 24), 8, 13, small_geometry());
}

TEST(Sim, ActivityCountsAreConsistent) {
    const auto pattern = longformer(64, 8, 1);
    Rng rng(20);
    const auto q = random_matrix(64, 8, rng, 0.0, 0.8);
    const auto k = random_matrix(64, 8, rng, 0.0, 0.8);
    const auto v = random_matrix(64, 8, rng, 0.0, 0.8);
    const auto sim = run_functional(pattern, q, k, v, 0.35f, small_geometry());
    // Every attended pair costs d MACs in stage 1 and d in stage 5.
    EXPECT_EQ(sim.activity.mac_ops, 2 * pattern.nnz() * 8);
    EXPECT_EQ(sim.activity.exp_ops, pattern.nnz());
}

TEST(Sim, ParameterizedSweepHoldsTolerance) {
    // Property-style sweep over window sizes and head dims.
    for (int w : {4, 10, 16}) {
        for (int d : {4, 8, 32}) {
            expect_matches_golden(sliding_window(48, w, {0}), d,
                                  static_cast<std::uint64_t>(100 + w * 10 + d),
                                  small_geometry());
        }
    }
}

// --- Parameterized suite over sequence lengths --------------------------

class SimSequenceLength : public ::testing::TestWithParam<int> {};

TEST_P(SimSequenceLength, LongformerMatchesGolden) {
    const int n = GetParam();
    expect_matches_golden(longformer(n, 8, 1), 8,
                          static_cast<std::uint64_t>(n), small_geometry());
}

INSTANTIATE_TEST_SUITE_P(Lengths, SimSequenceLength,
                         ::testing::Values(8, 15, 16, 33, 64, 100));

}  // namespace
}  // namespace salo
