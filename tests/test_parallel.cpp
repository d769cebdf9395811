// The parallel execution subsystem: determinism across thread counts, the
// reference-vs-optimized datapath bit-identity, the dispatched kernels, and
// the thread pool itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "common/rng.hpp"
#include "numeric/quantize.hpp"
#include "reference/seed_datapath.hpp"
#include "sim/kernels.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

SaloConfig config_with_threads(int threads, Fidelity fidelity = Fidelity::kFunctional) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    c.fidelity = fidelity;
    c.num_threads = threads;
    return c;
}

void expect_identical(const LayerResult& a, const LayerResult& b, const char* what) {
    ASSERT_EQ(a.output.count(), b.output.count()) << what;
    for (int h = 0; h < a.output.count(); ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(a.output[h], b.output[h]), 0.0)
            << what << ", head " << h;
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
    EXPECT_EQ(a.stats.tiles, b.stats.tiles) << what;
    EXPECT_EQ(a.stats.stage_totals.total(), b.stats.stage_totals.total()) << what;
    EXPECT_EQ(a.stats.activity.mac_ops, b.stats.activity.mac_ops) << what;
    EXPECT_EQ(a.stats.activity.exp_ops, b.stats.activity.exp_ops) << what;
    EXPECT_EQ(a.stats.activity.valid_slots, b.stats.activity.valid_slots) << what;
    EXPECT_EQ(a.stats.activity.pe_cycles, b.stats.activity.pe_cycles) << what;
}

// -------------------------------------------------------------------------
// Determinism: identical outputs AND identical SimStats for any thread
// count, at both fidelity levels. Multi-head layers take the head path
// (lanes claim whole heads); a single head runs its tile loop on the calling
// thread whatever the thread count, and these tests guard that it stays so
// (n and w give the plan many tiles and a global token).
// -------------------------------------------------------------------------

TEST(ParallelEngine, FunctionalDeterministicAcrossThreadCounts) {
    const auto workload = longformer_small(192, 16, 3, 16, 1);
    const auto qkv = make_qkv(workload, 11);
    const CompiledPlan plan = compile(workload.pattern, workload.head_dim, config_with_threads(1));
    const auto base =
        SaloEngine(config_with_threads(1)).run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
    for (int threads : {2, 8}) {
        const auto par = SaloEngine(config_with_threads(threads))
                             .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
        expect_identical(base, par, "functional");
    }
}

TEST(ParallelEngine, CycleAccurateDeterministicAcrossThreadCounts) {
    const auto workload = longformer_small(64, 8, 2, 8, 1);
    const auto qkv = make_qkv(workload, 5);
    const CompiledPlan plan = compile(workload.pattern, workload.head_dim, config_with_threads(1));
    const auto base = SaloEngine(config_with_threads(1, Fidelity::kCycleAccurate))
                          .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
    for (int threads : {2, 8}) {
        const auto par = SaloEngine(config_with_threads(threads, Fidelity::kCycleAccurate))
                             .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
        expect_identical(base, par, "cycle-accurate");
    }
}

TEST(ParallelEngine, HeadPathDeterministicWithUnevenHeadsPerLane) {
    // Fewer heads than lanes (3 on 4 or 8) and heads % lanes != 0 (5 on 4).
    for (Fidelity fidelity : {Fidelity::kFunctional, Fidelity::kCycleAccurate}) {
        for (int heads : {3, 5}) {
            const auto workload = longformer_small(64, 8, heads, 8, 1);
            const auto qkv = make_qkv(workload, 17 + static_cast<std::uint64_t>(heads));
            const CompiledPlan plan =
                compile(workload.pattern, workload.head_dim, config_with_threads(1));
            const auto base = SaloEngine(config_with_threads(1, fidelity))
                                  .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
            for (int threads : {4, 8}) {
                const auto par = SaloEngine(config_with_threads(threads, fidelity))
                                     .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
                SCOPED_TRACE(testing::Message() << heads << " heads, " << threads
                                                << " threads");
                expect_identical(base, par, fidelity == Fidelity::kFunctional
                                                ? "functional head path"
                                                : "cycle-accurate head path");
            }
        }
    }
}

TEST(ParallelEngine, SingleHeadCycleAccurateMatchesOneThread) {
    // One head on a multi-thread engine: the tile loop on the calling thread,
    // accounting in schedule order.
    const auto workload = longformer_small(128, 16, 1, 8, 1);
    const auto qkv = make_qkv(workload, 9);
    const CompiledPlan plan = compile(workload.pattern, workload.head_dim, config_with_threads(1));
    const auto base = SaloEngine(config_with_threads(1, Fidelity::kCycleAccurate))
                          .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
    ASSERT_GE(base.stats.tiles, 16);  // more tiles than the widest pool
    for (int threads : {2, 8}) {
        const auto par = SaloEngine(config_with_threads(threads, Fidelity::kCycleAccurate))
                             .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
        expect_identical(base, par, "cycle-accurate single head");
    }
}

TEST(ParallelEngine, SingleHeadRunDeterministicAcrossThreadCounts) {
    const auto pattern = longformer(256, 32, 1);
    Rng rng(7);
    const auto q = random_matrix(256, 16, rng, 0.0, 0.8);
    const auto k = random_matrix(256, 16, rng, 0.0, 0.8);
    const auto v = random_matrix(256, 16, rng, 0.0, 0.8);
    const CompiledPlan plan = compile(pattern, 16, config_with_threads(1));
    const auto seq = SaloEngine(config_with_threads(1)).run_head(plan, q, k, v, 0.25f);
    const auto par = SaloEngine(config_with_threads(8)).run_head(plan, q, k, v, 0.25f);
    EXPECT_DOUBLE_EQ(max_abs_diff(seq.output, par.output), 0.0);
    EXPECT_EQ(seq.stats.cycles, par.stats.cycles);
    EXPECT_EQ(seq.stats.activity.mac_ops, par.stats.activity.mac_ops);
}

// -------------------------------------------------------------------------
// Reference (seed) datapath vs the engine's datapaths: bit-identical end to
// end at functional and cycle-accurate fidelity.
// -------------------------------------------------------------------------

TEST(ParallelEngine, ReferenceDatapathBitIdenticalToOptimized) {
    // A Longformer layer (global token 0), and a layer with a second global
    // token mid-sequence, whose global PE row and column meet window tiles
    // on both sides of it.
    AttentionWorkload mid_global = longformer_small(96, 16, 2, 16, 2);
    mid_global.pattern = sliding_window(96, 16, {0, 40});
    for (const AttentionWorkload& workload :
         {longformer_small(128, 16, 2, 16, 1), mid_global}) {
        const auto qkv = make_qkv(workload, 3);
        const SaloConfig ref_cfg = config_with_threads(1);
        const CompiledPlan plan = compile(workload.pattern, workload.head_dim, ref_cfg);
        const auto ref = reference_run(ref_cfg, plan, qkv.q, qkv.k, qkv.v, workload.scale());
        for (Fidelity fidelity : {Fidelity::kFunctional, Fidelity::kCycleAccurate}) {
            for (int threads : {1, 8}) {
                const auto opt = SaloEngine(config_with_threads(threads, fidelity))
                                     .run(plan, qkv.q, qkv.k, qkv.v, workload.scale());
                SCOPED_TRACE(testing::Message()
                             << workload.pattern.global_tokens().size() << " globals, "
                             << threads << " threads, fidelity "
                             << static_cast<int>(fidelity));
                expect_identical(ref, opt, "reference vs optimized");
            }
        }
    }
}

// -------------------------------------------------------------------------
// Dispatched kernels vs scalar reference.
// -------------------------------------------------------------------------

TEST(Kernels, DispatchedDotMatchesScalar) {
    Rng rng(1);
    for (int d : {1, 3, 8, 16, 31, 64, 100, 256}) {
        std::vector<std::int8_t> q(static_cast<std::size_t>(d)), k(q.size());
        for (auto& x : q) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        for (auto& x : k) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        EXPECT_EQ(kernels::dot_i8(q.data(), k.data(), d),
                  kernels::dot_i8_scalar(q.data(), k.data(), d))
            << "d=" << d;
    }
}

TEST(Kernels, DispatchedRowDotAndWaccMatchScalar) {
    Rng rng(2);
    for (int d : {8, 16, 64, 96}) {
        const int n = 50, count = 37;
        std::vector<std::int8_t> q(static_cast<std::size_t>(d));
        std::vector<std::int8_t> base(static_cast<std::size_t>(n) * d);
        for (auto& x : q) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        for (auto& x : base) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        std::vector<int> keys(count);
        std::vector<std::uint32_t> sps(count);
        for (int i = 0; i < count; ++i) {
            keys[i] = static_cast<int>(rng.uniform_index(n));
            sps[i] = i % 5 == 0 ? 0 : rng.uniform_index(1 << 15);
        }
        std::vector<std::int32_t> s1(count), s2(count);
        kernels::dot_i8_rows(q.data(), base.data(), keys.data(), count, d, s1.data());
        kernels::dot_i8_rows_scalar(q.data(), base.data(), keys.data(), count, d,
                                    s2.data());
        EXPECT_EQ(s1, s2) << "dot rows d=" << d;

        std::vector<std::int32_t> a1(static_cast<std::size_t>(d), 7);
        std::vector<std::int32_t> a2(a1);
        kernels::wacc_sp_i8(a1.data(), sps.data(), keys.data(), count, base.data(), d);
        kernels::wacc_sp_i8_scalar(a2.data(), sps.data(), keys.data(), count,
                                   base.data(), d);
        EXPECT_EQ(a1, a2) << "wacc d=" << d;
    }
}

TEST(Kernels, BatchedPwlExpMatchesScalarUnit) {
    const PwlExp unit;  // default: 8 segments — batch-eligible
    ASSERT_EQ(unit.config().seg_bits, 3);
    // Extremes go FIRST so the SIMD lanes (which process a multiple-of-8
    // prefix) cover them rather than leaving them to the scalar tail.
    std::vector<ScoreRaw> xs = {std::numeric_limits<ScoreRaw>::min(),
                                std::numeric_limits<ScoreRaw>::max(), 0, -1, 1,
                                -255, 255, 4096};
    for (int i = -3000; i <= 3000; i += 7) xs.push_back(i);
    std::vector<ExpRaw> batch(xs.size());
    if (kernels::pwl_exp_batch != nullptr) {
        const kernels::PwlExpParams params{unit.slope_data(), unit.icept_data(),
                                           unit.config().lut_frac, unit.config().y_min,
                                           unit.config().y_max};
        const int done = kernels::pwl_exp_batch(params, xs.data(), batch.data(),
                                                static_cast<int>(xs.size()));
        ASSERT_GT(done, 0);
        for (int i = 0; i < done; ++i)
            ASSERT_EQ(batch[static_cast<std::size_t>(i)], unit.exp_raw(xs[static_cast<std::size_t>(i)]))
                << "x=" << xs[static_cast<std::size_t>(i)];
    } else {
        GTEST_SKIP() << "no SIMD batch kernel on this host";
    }
}

TEST(Kernels, RoundShiftAndMixMatchScalar) {
    Rng rng(3);
    std::vector<std::int32_t> v1(100), v2;
    for (auto& x : v1) x = static_cast<std::int32_t>(rng.uniform_index(1 << 24)) - (1 << 23);
    v2 = v1;
    kernels::round_shift_i32(v1.data(), static_cast<int>(v1.size()), 3);
    kernels::round_shift_i32_scalar(v2.data(), static_cast<int>(v2.size()), 3);
    EXPECT_EQ(v1, v2);

    std::vector<std::int32_t> o1(64), in(64);
    for (auto& x : o1) x = static_cast<std::int32_t>(rng.uniform_index(1 << 20)) - (1 << 19);
    for (auto& x : in) x = static_cast<std::int32_t>(rng.uniform_index(1 << 20)) - (1 << 19);
    std::vector<std::int32_t> o2 = o1;
    kernels::mix_i32(o1.data(), in.data(), 20000, 12768, 64);
    kernels::mix_i32_scalar(o2.data(), in.data(), 20000, 12768, 64);
    EXPECT_EQ(o1, o2);
}

TEST(Kernels, DispatchedQuantizerMatchesInputFx) {
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float tiny = std::numeric_limits<float>::min() / 4.0f;  // subnormal
    std::vector<float> values = {std::numeric_limits<float>::quiet_NaN(),
                                 inf, -inf, 1e30f, -1e30f, -0.0f, 0.0f, denorm, -denorm,
                                 tiny, -tiny,
                                 // exact half-steps of the Q.4 grid (ties to even)
                                 0.03125f, -0.03125f, 0.09375f, -0.09375f, 0.15625f,
                                 // exact half-steps after scaling by 0.125
                                 0.25f, -0.25f, 0.75f, 1.25f, -1.25f,
                                 // saturation edges
                                 127.5f / 16.0f, -128.5f / 16.0f, 127.4f / 16.0f,
                                 -128.4f / 16.0f, 8.0f, -8.0f, 64.0f, -64.0f};
    Rng rng(4);
    for (int i = 0; i < 23; ++i) values.push_back(static_cast<float>(rng.normal(0.0, 4.0)));
    const float scales[] = {1.0f, 0.125f};
    std::vector<float> src;
    std::vector<std::int8_t> got;
    for (float scale : scales) {
        for (std::size_t len = 1; len <= 40; ++len) {
            // Every rotation, so each special value lands in the SIMD body
            // and in the tail at every length.
            for (std::size_t rot = 0; rot < values.size(); ++rot) {
                src.resize(len);
                for (std::size_t i = 0; i < len; ++i)
                    src[i] = values[(rot + i) % values.size()];
                got.assign(len + 1, 99);  // the guard byte must survive
                kernels::quantize_input(src.data(), len, scale, got.data());
                for (std::size_t i = 0; i < len; ++i)
                    ASSERT_EQ(got[i], InputFx::from_float(src[i] * scale).raw())
                        << "x=" << src[i] << " scale=" << scale << " len=" << len
                        << " i=" << i;
                ASSERT_EQ(got[len], 99) << "wrote past len=" << len;
            }
        }
    }
}

// -------------------------------------------------------------------------
// The pool itself.
// -------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.lanes(), 4);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(257, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.lanes(), 1);
    int sum = 0;
    pool.parallel_for(10, [&](int i) { sum += i; });
    EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](int i) {
                              if (i == 31) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool survives and is reusable after a failed run.
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ThrowingTaskDoesNotAbandonSiblings) {
    // Fault isolation: one throwing index must not stop the region — every
    // other index still runs exactly once, and the first exception is
    // rethrown to the caller after the region completes. (The old pool
    // abandoned unclaimed indices on the first throw, which would let one
    // faulted request in a served batch starve its batch siblings.)
    for (int lanes : {1, 4}) {
        ThreadPool pool(lanes);
        std::vector<std::atomic<int>> hits(97);
        for (auto& h : hits) h.store(0);
        bool threw = false;
        try {
            pool.parallel_for(97, [&](int i) {
                hits[static_cast<std::size_t>(i)].fetch_add(1);
                if (i == 13) throw std::runtime_error("injected");
            });
        } catch (const std::runtime_error& e) {
            threw = true;
            EXPECT_STREQ(e.what(), "injected");
        }
        EXPECT_TRUE(threw) << "lanes=" << lanes;
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "lanes=" << lanes;
    }
}

TEST(ThreadPool, EngineDefaultsToHardwareConcurrency) {
    SaloConfig c;
    EXPECT_EQ(c.num_threads, default_num_threads());
    EXPECT_GE(c.num_threads, 1);
}

}  // namespace
}  // namespace salo
