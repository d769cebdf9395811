// Failure injection: every module must reject malformed configurations
// loudly (ContractViolation) instead of producing silently wrong cycle
// counts or outputs — the cardinal sin of a hardware model.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "model/salo_model.hpp"
#include "model/sanger.hpp"
#include "model/synthesis.hpp"
#include "scheduler/scheduler.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

TEST(FailureInjection, GeometryValidation) {
    ArrayGeometry g;
    g.rows = 0;
    EXPECT_THROW(g.validate(), ContractViolation);
    g = {};
    g.cols = -3;
    EXPECT_THROW(g.validate(), ContractViolation);
    g = {};
    g.frequency_ghz = 0.0;
    EXPECT_THROW(g.validate(), ContractViolation);
    g = {};
    g.key_buffer_bytes = 0;
    EXPECT_THROW(g.validate(), ContractViolation);
}

TEST(FailureInjection, EngineRejectsBadConfig) {
    SaloConfig c;
    c.geometry.rows = -1;
    EXPECT_THROW(SaloEngine{c}, ContractViolation);
    c = {};
    c.bus_bytes_per_cycle = 0;
    EXPECT_THROW(SaloEngine{c}, ContractViolation);
    c = {};
    c.exp_config.seg_bits = 99;
    EXPECT_THROW(SaloEngine{c}, ContractViolation);
    c = {};
    c.recip_config.nr_iters = -2;
    EXPECT_THROW(SaloEngine{c}, ContractViolation);
}

TEST(FailureInjection, SchedulerRejectsUndersizedBuffers) {
    ArrayGeometry g;
    g.query_buffer_bytes = 8;  // cannot hold 33 queries x 64 dims
    EXPECT_THROW(schedule(longformer(128, 16, 1), g, 64), ContractViolation);

    g = {};
    g.key_buffer_bytes = 64;  // cannot hold the diagonal stream
    g.value_buffer_bytes = 64;
    EXPECT_THROW(schedule(longformer(128, 16, 1), g, 64), ContractViolation);

    g = {};
    g.output_buffer_bytes = 4;
    EXPECT_THROW(schedule(longformer(128, 16, 1), g, 64), ContractViolation);
}

TEST(FailureInjection, SchedulerRejectsBadHeadDim) {
    ArrayGeometry g;
    EXPECT_THROW(schedule(longformer(128, 16, 1), g, 0), ContractViolation);
}

TEST(FailureInjection, EngineShapeMismatches) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    const SaloEngine engine(c);
    const auto pattern = longformer(16, 4, 1);
    Matrix<float> ok(16, 8), wrong_rows(8, 8), wrong_cols(16, 4);
    const CompiledPlanPtr plan = engine.compile(pattern, ok.cols());
    EXPECT_THROW(engine.run_head(*plan, wrong_rows, ok, ok, 1.0f), ContractViolation);
    EXPECT_THROW(engine.run_head(*plan, ok, wrong_cols, ok, 1.0f), ContractViolation);
    EXPECT_THROW(engine.run_head(*plan, ok, ok, wrong_rows, 1.0f), ContractViolation);
}

TEST(FailureInjection, MultiHeadCountMismatch) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    const SaloEngine engine(c);
    const auto pattern = longformer(16, 4, 1);
    Tensor3<float> q(2, 16, 8), k(3, 16, 8), v(2, 16, 8);
    const CompiledPlanPtr plan = engine.compile(pattern, 8);
    EXPECT_THROW(engine.run(*plan, q, k, v, 1.0f), ContractViolation);
    Tensor3<float> empty;
    EXPECT_THROW(engine.run(*plan, empty, empty, empty, 1.0f), ContractViolation);
}

TEST(FailureInjection, SynthesisRejectsInvalidGeometry) {
    ArrayGeometry g;
    g.rows = 0;
    EXPECT_THROW(synthesize(g), ContractViolation);
}

TEST(FailureInjection, SangerRejectsZeroPes) {
    SangerConfig c;
    c.pe_rows = 0;
    EXPECT_THROW(sanger_estimate(c, longformer_small(64, 8, 1, 8, 1)),
                 ContractViolation);
}

TEST(FailureInjection, VerifyCoverageDetectsCorruption) {
    ArrayGeometry g;
    g.rows = 8;
    g.cols = 8;
    const auto pattern = longformer(32, 8, 1);
    SchedulePlan plan = schedule(pattern, g, 8, {});
    std::string error;
    ASSERT_TRUE(verify_coverage(pattern, plan, &error));

    // Corrupt a valid slot: double-counting must be caught.
    for (auto& tile : plan.tiles) {
        for (int r = 0; r < tile.rows(); ++r) {
            for (int c = 0; c + 1 < tile.cols(); ++c) {
                if (tile.is_valid(r, c) && !tile.is_valid(r, c + 1) &&
                    tile.segment_at(c + 1) != nullptr) {
                    tile.valid[static_cast<std::size_t>(r * tile.cols() + c + 1)] = 1;
                    EXPECT_FALSE(verify_coverage(pattern, plan, &error));
                    EXPECT_FALSE(error.empty());
                    return;
                }
            }
        }
    }
    FAIL() << "no corruptible slot found";
}

TEST(FailureInjection, VerifyCoverageDetectsMissingWork) {
    ArrayGeometry g;
    g.rows = 8;
    g.cols = 8;
    const auto pattern = longformer(32, 8, 1);
    SchedulePlan plan = schedule(pattern, g, 8, {});
    // Drop a tile entirely.
    plan.tiles.pop_back();
    std::string error;
    EXPECT_FALSE(verify_coverage(pattern, plan, &error));
    EXPECT_NE(error.find("coverage mismatch"), std::string::npos);
}

}  // namespace
}  // namespace salo
