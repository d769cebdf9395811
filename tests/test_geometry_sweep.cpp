// Parameterized sweep over PE-array geometries: the scheduler's coverage
// invariant and the simulator-vs-golden equivalence must hold for every
// array shape, not just the paper's 32x32.
#include <gtest/gtest.h>

#include "attention/golden.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "model/salo_model.hpp"
#include "numeric/quantize.hpp"
#include "scheduler/scheduler.hpp"

namespace salo {
namespace {

struct Geometry {
    int rows;
    int cols;
};

class GeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(GeometrySweep, LongformerCoverage) {
    ArrayGeometry g;
    g.rows = GetParam().rows;
    g.cols = GetParam().cols;
    const auto pattern = longformer(96, 12, 2);
    const SchedulePlan plan = schedule(pattern, g, 8, {});
    std::string error;
    EXPECT_TRUE(verify_coverage(pattern, plan, &error)) << error;
}

TEST_P(GeometrySweep, Vil2dCoverage) {
    ArrayGeometry g;
    g.rows = GetParam().rows;
    g.cols = GetParam().cols;
    const auto pattern = vil_2d(10, 10, 5, 5, 1);
    const SchedulePlan plan = schedule(pattern, g, 8, {});
    std::string error;
    EXPECT_TRUE(verify_coverage(pattern, plan, &error)) << error;
}

TEST_P(GeometrySweep, EngineMatchesGolden) {
    SaloConfig config;
    config.geometry.rows = GetParam().rows;
    config.geometry.cols = GetParam().cols;
    const SaloEngine engine(config);
    const auto pattern = longformer(64, 10, 1);
    Rng rng(static_cast<std::uint64_t>(GetParam().rows * 100 + GetParam().cols));
    const auto q = random_matrix(64, 8, rng, 0.0, 0.8);
    const auto k = random_matrix(64, 8, rng, 0.0, 0.8);
    const auto v = random_matrix(64, 8, rng, 0.0, 0.8);
    const float scale = 0.35f;
    const auto sim = engine.run_head(*engine.compile(pattern, q.cols()), q, k, v, scale);
    Matrix<float> qs = q;
    for (auto& x : qs.data()) x *= scale;
    const auto gold = masked_attention(quantize_roundtrip<InputFx>(qs),
                                       quantize_roundtrip<InputFx>(k),
                                       quantize_roundtrip<InputFx>(v), 1.0f,
                                       pattern.attend_fn());
    EXPECT_LT(max_abs_diff(sim.output, gold), 0.12);
}

TEST_P(GeometrySweep, OccupancyConsistentBetweenPlanAndModel) {
    SaloConfig config;
    config.geometry.rows = GetParam().rows;
    config.geometry.cols = GetParam().cols;
    const auto pattern = longformer(128, 16, 1);
    const SchedulePlan plan = schedule(pattern, config.geometry, 8, {});
    const SimStats stats = estimate_head_stats(plan, config);
    EXPECT_DOUBLE_EQ(plan.stats.slot_occupancy(), stats.activity.occupancy());
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeometrySweep,
                         ::testing::Values(Geometry{4, 4}, Geometry{4, 16},
                                           Geometry{16, 4}, Geometry{8, 8},
                                           Geometry{8, 12}, Geometry{12, 8},
                                           Geometry{16, 16}, Geometry{32, 8}),
                         [](const ::testing::TestParamInfo<Geometry>& info) {
                             return std::to_string(info.param.rows) + "x" +
                                    std::to_string(info.param.cols);
                         });

}  // namespace
}  // namespace salo
