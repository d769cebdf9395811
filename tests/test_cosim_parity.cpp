// Single-array co-simulation parity: an uncontended ArrayComponent fed a
// plan's tile costs must reproduce the TileCostAccountant recurrence (the
// engine's analytic cycle model) bit-for-bit — per tile, not just in total
// — across array geometries, patterns, and the double-buffer/pipelining
// configuration space. Also ties the replayed stage breakdowns back to the
// cycle-accurate datapath's measured counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cosim/system.hpp"
#include "numeric/quantize.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/tile_costs.hpp"

namespace salo {
namespace {

struct Geometry {
    int rows;
    int cols;
};

TileCostParams make_params(int head_dim, bool double_buffer, bool tile_pipelining) {
    TileCostParams params;
    params.head_dim = head_dim;
    params.double_buffer = double_buffer;
    params.tile_pipelining = tile_pipelining;
    return params;
}

/// Run `plan` on a 1-array system and check every per-tile finish time and
/// every stall counter against the sequential accountant.
void expect_parity(const SchedulePlan& plan, const TileCostParams& params) {
    ASSERT_FALSE(plan.tiles.empty());
    TileCostAccountant accountant(params);
    std::vector<std::int64_t> expected_finish;
    std::int64_t elapsed = 0;
    std::int64_t expected_stalls = 0;
    CycleBreakdown expected_stages;
    for (const TileTask& tile : plan.tiles) {
        const TileCostAccountant::Step step = accountant.account(tile);
        elapsed += step.cycles;
        expected_finish.push_back(elapsed - 1);  // finish cycle of this tile
        expected_stalls += step.stall_cycles;
        for (int s = 0; s < 5; ++s)
            expected_stages.stage[s] += step.cost.breakdown.stage[s];
    }

    cosim::CosimConfig config;
    config.num_arrays = 1;
    config.costs = params;
    cosim::MultiArraySystem system(config);
    for (const TileTask& tile : plan.tiles)
        system.enqueue(0, tile_cost(tile, params));
    const cosim::CosimReport report = system.run();

    ASSERT_EQ(report.final_state, cosim::RunState::kIdle)
        << "full tile run must quiesce, never deadlock";
    const cosim::ArrayComponent::Stats& a = report.arrays[0];
    EXPECT_EQ(a.tiles, static_cast<std::int64_t>(plan.tiles.size()));
    EXPECT_EQ(a.total_cycles, accountant.total_cycles());
    EXPECT_EQ(a.tile_finish_cycles, expected_finish);
    // An uncontended array never stalls on the memory ports or the bus; its
    // only waits are the exposed load cycles the recurrence predicts.
    EXPECT_EQ(a.fetch_stall_cycles, 0);
    EXPECT_EQ(a.wb_stall_cycles, 0);
    EXPECT_EQ(a.mem_wait_cycles, expected_stalls);
    for (int s = 0; s < 5; ++s)
        EXPECT_EQ(a.stage_totals.stage[s], expected_stages.stage[s]);
}

class CosimParitySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(CosimParitySweep, MatchesAccountantAcrossPatterns) {
    ArrayGeometry g;
    g.rows = GetParam().rows;
    g.cols = GetParam().cols;
    const struct {
        HybridPattern pattern;
        int head_dim;
    } cases[] = {
        {longformer(96, 12, 2), 8},
        {vil_2d(10, 10, 5, 5, 1), 8},
        {longformer(64, 10, 1), 16},
    };
    for (const auto& c : cases) {
        const SchedulePlan plan = schedule(c.pattern, g, c.head_dim, {});
        expect_parity(plan, make_params(c.head_dim, true, false));
    }
}

TEST_P(CosimParitySweep, MatchesAccountantWithoutDoubleBuffer) {
    ArrayGeometry g;
    g.rows = GetParam().rows;
    g.cols = GetParam().cols;
    const SchedulePlan plan = schedule(longformer(96, 12, 2), g, 8, {});
    expect_parity(plan, make_params(8, false, false));
}

TEST_P(CosimParitySweep, MatchesAccountantWithTilePipelining) {
    ArrayGeometry g;
    g.rows = GetParam().rows;
    g.cols = GetParam().cols;
    const SchedulePlan plan = schedule(longformer(96, 12, 2), g, 8, {});
    expect_parity(plan, make_params(8, true, true));
    expect_parity(plan, make_params(8, false, true));
}

INSTANTIATE_TEST_SUITE_P(Shapes, CosimParitySweep,
                         ::testing::Values(Geometry{4, 4}, Geometry{4, 16},
                                           Geometry{16, 4}, Geometry{8, 8},
                                           Geometry{8, 12}, Geometry{12, 8},
                                           Geometry{16, 16}, Geometry{32, 8}),
                         [](const ::testing::TestParamInfo<Geometry>& info) {
                             return std::to_string(info.param.rows) + "x" +
                                    std::to_string(info.param.cols);
                         });

// The replayed stage totals are not synthetic numbers: they equal what the
// cycle-accurate datapath measures tile by tile on real (quantized) inputs.
TEST(CosimParity, StageTotalsMatchCycleAccurateMeasurement) {
    ArrayGeometry g;
    g.rows = 8;
    g.cols = 8;
    const auto pattern = longformer(64, 10, 1);
    const int d = 8;
    const SchedulePlan plan = schedule(pattern, g, d, {});
    Rng rng(7);
    const auto q = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
    const auto k = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
    const auto v = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
    PwlExp exp_unit;
    Reciprocal recip_unit;
    const CycleAccurateArray array(g, CycleConfig{}, exp_unit, recip_unit, q, k, v);
    CycleBreakdown measured;
    ActivityStats activity;
    PartArena parts;
    PartScratch scratch;
    for (const TileTask& tile : plan.tiles) {
        parts.reset();
        const CycleBreakdown b = array.run(tile, parts, activity, scratch);
        for (int s = 0; s < 5; ++s) measured.stage[s] += b.stage[s];
    }

    cosim::CosimConfig config;
    const TileCostParams params = make_params(d, true, false);
    config.costs = params;
    cosim::MultiArraySystem system(config);
    for (const TileTask& tile : plan.tiles) system.enqueue(0, tile_cost(tile, params));
    const cosim::CosimReport report = system.run();
    for (int s = 0; s < 5; ++s)
        EXPECT_EQ(report.arrays[0].stage_totals.stage[s], measured.stage[s]);
}

}  // namespace
}  // namespace salo
