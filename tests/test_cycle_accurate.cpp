// Cycle-accurate array model: bit-exact agreement with the functional
// executor, and measured cycle counts matching the closed-form formulas.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "numeric/quantize.hpp"
#include "reference/seed_datapath.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/tile_executor.hpp"

namespace salo {
namespace {

struct Fixture {
    ArrayGeometry geometry;
    SchedulePlan plan;
    Matrix<std::int8_t> q, k, v;
    PwlExp exp_unit;
    Reciprocal recip_unit;

    Fixture(const HybridPattern& pattern, int d, std::uint64_t seed, int rows = 8,
            int cols = 8) {
        geometry.rows = rows;
        geometry.cols = cols;
        plan = schedule(pattern, geometry, d, {});
        Rng rng(seed);
        q = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
        k = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
        v = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
    }
};

// The seed's scalar tile loop (ReferenceTileExecutor) is the independent
// oracle: the cycle-accurate array must reproduce its parts and useful-work
// counters tile for tile, and so must the functional arena executor.
void expect_bit_exact(const HybridPattern& pattern, int d, std::uint64_t seed) {
    Fixture f(pattern, d, seed);
    const ReferenceTileExecutor seed_exec(f.exp_unit, f.recip_unit, f.q, f.k, f.v);
    const TileExecutor exec(f.exp_unit, f.recip_unit, f.q, f.k, f.v);
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip_unit,
                                   f.q, f.k, f.v);
    PartArena arena, slow;
    PartScratch scratch;
    for (const TileTask& tile : f.plan.tiles) {
        std::vector<TilePart> fast;
        ActivityStats a1, a2, a3;
        arena.reset();
        slow.reset();
        seed_exec.run(tile, fast, a1);
        array.run(tile, slow, a2, scratch);
        exec.run(tile, arena, a3, scratch);
        ASSERT_EQ(fast.size(), slow.used());
        ASSERT_EQ(arena.used(), slow.used());
        for (std::size_t i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(fast[i].query, slow.at(i).query);
            EXPECT_EQ(fast[i].weight, slow.at(i).weight) << "part " << i;
            EXPECT_EQ(fast[i].out_q, slow.at(i).out_q) << "part " << i;
            EXPECT_EQ(arena.at(i).query, slow.at(i).query);
            EXPECT_EQ(arena.at(i).weight, slow.at(i).weight) << "part " << i;
            EXPECT_EQ(arena.at(i).out_q, slow.at(i).out_q) << "part " << i;
        }
        // Identical useful-work counters (pe_cycles only exists in the
        // cycle-accurate path).
        EXPECT_EQ(a1.mac_ops, a2.mac_ops);
        EXPECT_EQ(a1.exp_ops, a2.exp_ops);
        EXPECT_EQ(a1.valid_slots, a2.valid_slots);
        EXPECT_EQ(a3.mac_ops, a2.mac_ops);
        EXPECT_EQ(a3.exp_ops, a2.exp_ops);
        EXPECT_EQ(a3.valid_slots, a2.valid_slots);
    }
}

TEST(CycleAccurate, BitExactSlidingWindow) {
    expect_bit_exact(sliding_window(64, 8), 16, 1);
}

TEST(CycleAccurate, BitExactLongformer) {
    expect_bit_exact(longformer(64, 8, 1), 8, 2);
}

TEST(CycleAccurate, BitExactDilated) {
    expect_bit_exact(dilated_window(64, -2, 2, 3), 8, 3);
}

TEST(CycleAccurate, BitExactVil2d) {
    expect_bit_exact(vil_2d(8, 8, 3, 3, 1), 8, 4);
}

TEST(CycleAccurate, BitExactManyGlobals) {
    expect_bit_exact(sparse_transformer_fixed(40, 8), 8, 5);
}

TEST(CycleAccurate, MeasuredCyclesMatchFormulas) {
    Fixture f(longformer(64, 8, 1), 16, 6);
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip_unit,
                                   f.q, f.k, f.v);
    const CycleConfig ccfg;
    PartArena parts;
    PartScratch scratch;
    for (const TileTask& tile : f.plan.tiles) {
        ActivityStats activity;
        parts.reset();
        const CycleBreakdown measured = array.run(tile, parts, activity, scratch);
        const CycleBreakdown formula = tile_cycles(tile, 16, ccfg);
        for (int s = 0; s < 5; ++s)
            EXPECT_EQ(measured.stage[s], formula.stage[s]) << "stage " << s;
    }
}

TEST(CycleAccurate, StageBreakdownShape) {
    // For d=16, rows=cols=8 fully used: stage1 = 16+8+8-2 = 30,
    // stage3 = 8 + recip_latency + 1, stage5 = 16+8-1+2 = 25.
    Fixture f(sliding_window(64, 8), 16, 7);
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip_unit,
                                   f.q, f.k, f.v);
    PartArena parts;
    PartScratch scratch;
    ActivityStats activity;
    // Find a full-width interior tile.
    const TileTask* full = nullptr;
    for (const TileTask& tile : f.plan.tiles)
        if (tile.cols_used() == 8) full = &tile;
    ASSERT_NE(full, nullptr);
    const CycleBreakdown b = array.run(*full, parts, activity, scratch);
    EXPECT_EQ(b.stage[0], 30);
    EXPECT_EQ(b.stage[1], 3);
    EXPECT_EQ(b.stage[2], 8 + Reciprocal::Config{}.latency() + 1);
    EXPECT_EQ(b.stage[3], 1);
    EXPECT_EQ(b.stage[4], 25);
}

TEST(CycleConfigValidate, DefaultsPassAndBadFieldsAreNamed) {
    EXPECT_NO_THROW(CycleConfig{}.validate());

    CycleConfig c;
    c.exp_cycles = 0;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("exp_cycles"), std::string::npos);
    }

    c = CycleConfig{};
    c.broadcast_cycles = -1;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("broadcast_cycles"), std::string::npos);
    }

    c = CycleConfig{};
    c.wsm_cycles = -1;
    EXPECT_THROW(c.validate(), ContractViolation);

    c = CycleConfig{};
    c.recip.lut_bits = 0;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("lut_bits"), std::string::npos);
    }

    c = CycleConfig{};
    c.recip.nr_iters = 7;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("nr_iters"), std::string::npos);
    }
}

TEST(CycleConfigValidate, CycleAccurateArrayRejectsInvalidConfig) {
    Fixture f(longformer(64, 10, 1), 8, 3);
    CycleConfig bad;
    bad.stage4_cycles = 0;
    EXPECT_THROW(CycleAccurateArray(f.geometry, bad, f.exp_unit, f.recip_unit, f.q,
                                    f.k, f.v),
                 ContractViolation);
}

TEST(CycleAccurate, UtilizationBetweenZeroAndOne) {
    Fixture f(vil_2d(8, 8, 3, 3, 1), 8, 8);
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip_unit,
                                   f.q, f.k, f.v);
    ActivityStats activity;
    PartArena parts;
    PartScratch scratch;
    for (const TileTask& tile : f.plan.tiles) {
        parts.reset();
        array.run(tile, parts, activity, scratch);
    }
    EXPECT_GT(activity.occupancy(), 0.0);
    EXPECT_LE(activity.occupancy(), 1.0);
    EXPECT_GT(activity.mac_utilization(), 0.0);
    EXPECT_LT(activity.mac_utilization(), 1.0);
}

}  // namespace
}  // namespace salo
