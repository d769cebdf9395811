// FaultInjector: deterministic seeded triggers, engine-level installation,
// and the batch-isolation acceptance test — one injected fault fails
// exactly that request's future with EngineFault while the rest of the
// batch completes bit-identical to standalone runs and the session stays
// serviceable.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/salo.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

SaloConfig serving_config(int threads) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    c.num_threads = threads;
    return c;
}

bool eventually(const std::function<bool()>& pred, milliseconds budget = milliseconds(2000)) {
    const Clock::time_point until = Clock::now() + budget;
    while (Clock::now() < until) {
        if (pred()) return true;
        std::this_thread::sleep_for(milliseconds(1));
    }
    return pred();
}

void expect_identical_layer(const LayerResult& a, const LayerResult& b,
                            const char* what) {
    ASSERT_EQ(a.output.count(), b.output.count()) << what;
    for (int h = 0; h < a.output.count(); ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(a.output[h], b.output[h]), 0.0)
            << what << ", head " << h;
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
    EXPECT_EQ(a.stats.tiles, b.stats.tiles) << what;
}

// -------------------------------------------------------------------------
// Deterministic triggers.
// -------------------------------------------------------------------------

TEST(FaultInjector, SeededTriggerIsDeterministicPerSeed) {
    FaultInjector::Config c;
    c.seed = 7;
    c.tile_fault_rate = 0.3;
    const FaultInjector a(c), b(c);
    std::set<int> fa, fb;
    for (int t = 0; t < 1000; ++t) {
        if (a.seeded_fault(t)) fa.insert(t);
        if (b.seeded_fault(t)) fb.insert(t);
    }
    EXPECT_EQ(fa, fb);  // same seed, same faults — every run, every instance
    // The rate is honored loosely (hash-uniform over 1000 tiles).
    EXPECT_GT(fa.size(), 150u);
    EXPECT_LT(fa.size(), 450u);

    c.seed = 8;
    const FaultInjector other(c);
    std::set<int> fo;
    for (int t = 0; t < 1000; ++t)
        if (other.seeded_fault(t)) fo.insert(t);
    EXPECT_NE(fa, fo);  // a different seed faults different tiles
}

TEST(FaultInjector, ProbeModeOnlyCounts) {
    const FaultInjector probe;
    for (int t = 0; t < 5; ++t) probe.on_tile(t);
    EXPECT_EQ(probe.tiles_seen(), 5u);
    EXPECT_EQ(probe.faults_injected(), 0u);
    EXPECT_EQ(probe.stalls_injected(), 0u);
}

TEST(FaultInjector, MaxFaultsCapsInjection) {
    FaultInjector::Config c;
    c.fault_tiles = {0, 1, 2};
    c.max_faults = 1;
    const FaultInjector inj(c);
    EXPECT_THROW(inj.on_tile(0), EngineFault);
    inj.on_tile(1);  // cap reached: listed tiles pass through untouched
    inj.on_tile(2);
    EXPECT_EQ(inj.faults_injected(), 1u);
}

TEST(FaultInjector, EngineLevelInjectorFaultsEveryRunUntilCap) {
    const AttentionWorkload w = longformer_small(64, 8, 1, 16, 1);
    const QkvSet qkv = make_qkv(w, 3);
    SaloConfig config = serving_config(1);
    FaultInjector::Config fc;
    fc.fault_tiles = {0};
    fc.max_faults = 1;
    auto injector = std::make_shared<FaultInjector>(fc);
    config.fault_injector = injector;
    const SaloEngine engine(config);
    const CompiledPlanPtr plan = engine.compile(w.pattern, w.head_dim);
    EXPECT_THROW(engine.run(*plan, qkv.q, qkv.k, qkv.v, w.scale()), EngineFault);
    // The cap is spent: the same engine serves the next run normally.
    const LayerResult ok = engine.run(*plan, qkv.q, qkv.k, qkv.v, w.scale());
    EXPECT_EQ(ok.output.count(), 1);
    EXPECT_EQ(injector->faults_injected(), 1u);
}

// -------------------------------------------------------------------------
// Acceptance: one faulted request in a served batch fails alone.
// -------------------------------------------------------------------------

TEST(FaultInjector, FaultedRequestFailsAloneAndBatchStaysBitIdentical) {
    const int kSiblings = 4;
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 1);
    std::vector<QkvSet> inputs;
    for (int i = 0; i < kSiblings + 1; ++i)
        inputs.push_back(make_qkv(w, 500 + static_cast<std::uint64_t>(i)));

    // Ground truth: every request standalone through a sequential engine.
    const SaloEngine sequential(serving_config(1));
    std::vector<LayerResult> expected;
    const CompiledPlanPtr plan = sequential.compile(w.pattern, w.head_dim);
    for (int i = 0; i <= kSiblings; ++i)
        expected.push_back(sequential.run(*plan, inputs[static_cast<std::size_t>(i)].q,
                                          inputs[static_cast<std::size_t>(i)].k,
                                          inputs[static_cast<std::size_t>(i)].v,
                                          w.scale()));

    SaloSession session(serving_config(4));

    // Wedge the dispatcher with a stalling first request so the faulty
    // request and its siblings accumulate into one batch.
    FaultInjector::Config sc;
    sc.stall_tiles = {0};
    sc.stall_for = std::chrono::microseconds(200000);
    auto stall = std::make_shared<FaultInjector>(sc);
    AttentionRequest wedge = make_request(w.pattern, inputs[0].q, inputs[0].k,
                                          inputs[0].v, w.scale());
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    // One batch of kSiblings requests; request 1 carries a fault injector.
    FaultInjector::Config fc;
    fc.fault_tiles = {0};
    auto fault = std::make_shared<FaultInjector>(fc);
    std::vector<std::future<LayerResult>> futures;
    for (int i = 1; i <= kSiblings; ++i) {
        AttentionRequest r = make_request(w.pattern, inputs[static_cast<std::size_t>(i)].q,
                                          inputs[static_cast<std::size_t>(i)].k,
                                          inputs[static_cast<std::size_t>(i)].v,
                                          w.scale());
        if (i == 1) r.fault_injector = fault;
        futures.push_back(session.submit(std::move(r)));
    }

    // The wedge and every non-faulted sibling complete bit-identical to
    // their standalone sequential runs; only the faulted future fails.
    expect_identical_layer(first.get(), expected[0], "wedge request");
    EXPECT_THROW(futures[0].get(), EngineFault);
    EXPECT_GE(fault->faults_injected(), 1u);
    for (int i = 2; i <= kSiblings; ++i)
        expect_identical_layer(futures[static_cast<std::size_t>(i - 1)].get(),
                               expected[static_cast<std::size_t>(i)], "batch sibling");

    // The session stays serviceable after the fault.
    auto after = session.submit(w.pattern, inputs[0].q, inputs[0].k, inputs[0].v,
                                w.scale());
    expect_identical_layer(after.get(), expected[0], "post-fault request");

    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kSiblings + 2));
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kSiblings + 1));
    EXPECT_EQ(s.accounted(), s.submitted);
}

}  // namespace
}  // namespace salo
