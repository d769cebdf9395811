// Streaming decode: micro-plan derivation and fingerprinting, the engine's
// incremental run_step path (bit-identity against full-prefix encode at
// every step), and the DecodeSession serving layer (stream lifecycle,
// batching, eviction semantics, conservation).
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "attention/streaming.hpp"
#include "core/compiled_plan.hpp"
#include "core/decode_session.hpp"
#include "core/engine.hpp"
#include "core/errors.hpp"
#include "core/plan_cache.hpp"
#include "numeric/quantize.hpp"
#include "reference/seed_datapath.hpp"
#include "tensor/tensor3.hpp"

namespace salo {
namespace {

// The prefix pattern at length L: same bands, globals clipped to [0, L).
HybridPattern prefix_pattern(int length, const std::vector<Band>& bands,
                             const std::vector<int>& globals) {
    std::vector<int> g;
    for (int x : globals)
        if (x < length) g.push_back(x);
    return HybridPattern(length, bands, std::move(g));
}

// Drive `steps` decode steps of one stream through run_step and compare
// every step's output, bitwise, against row t of the full-prefix encode of
// length t+1 (the only correct reference: later globals would change row
// t's attended set). With `seed_reference` the steps take the int8
// overload and the encode is the seed datapath's reference_run.
void expect_stepwise_bit_identity(const SaloConfig& config, const std::vector<Band>& bands,
                                  const std::vector<int>& globals, int heads, int d,
                                  int steps, Fidelity fidelity, unsigned seed,
                                  bool seed_reference = false) {
    SaloEngine engine(config);
    const float scale = 0.25f;
    Rng rng(seed);
    const Tensor3<float> q_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> k_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> v_all = random_tensor3(heads, steps, d, rng);

    DecodeState state(heads, d, decode_window_span(bands), globals);
    RunOptions options;
    options.fidelity = fidelity;
    options.thread_budget = 1;

    for (int t = 0; t < steps; ++t) {
        Matrix<float> q_row(heads, d, 0.0f);
        Matrix<float> k_row(heads, d, 0.0f);
        Matrix<float> v_row(heads, d, 0.0f);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) {
                q_row(h, x) = q_all[h](t, x);
                k_row(h, x) = k_all[h](t, x);
                v_row(h, x) = v_all[h](t, x);
            }
        state.append(k_row, v_row);

        const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
        const CompiledPlanPtr micro = engine.compile_step(prefix, d);
        ASSERT_TRUE(micro->is_step());
        EXPECT_EQ(micro->step().position, t);
        StepResult step;
        if (seed_reference) {
            auto [kq, vq] = state.assemble_quantized();
            step = engine.run_step(*micro, q_row, kq, vq, scale, options);
        } else {
            auto [kc, vc] = state.assemble();
            step = engine.run_step(*micro, q_row, kc, vc, scale, options);
        }

        // Full-prefix reference: whole-sequence encode of the same t+1 rows.
        Tensor3<float> q_pre(heads, t + 1, d), k_pre(heads, t + 1, d),
            v_pre(heads, t + 1, d);
        for (int h = 0; h < heads; ++h)
            for (int r = 0; r <= t; ++r)
                for (int x = 0; x < d; ++x) {
                    q_pre[h](r, x) = q_all[h](r, x);
                    k_pre[h](r, x) = k_all[h](r, x);
                    v_pre[h](r, x) = v_all[h](r, x);
                }
        const CompiledPlanPtr full = engine.compile(prefix, d);
        const LayerResult ref =
            seed_reference ? reference_run(config, *full, q_pre, k_pre, v_pre, scale)
                           : engine.run(*full, q_pre, k_pre, v_pre, scale, options);

        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x)
                ASSERT_EQ(step.output[h](0, x), ref.output[h](t, x))
                    << "fidelity=" << static_cast<int>(fidelity) << " step=" << t
                    << " head=" << h << " dim=" << x;
    }
}

// -------------------------------------------------------------------------
// Pattern-level decode helpers
// -------------------------------------------------------------------------

TEST(DecodeHelpers, CausalityAndSpan) {
    EXPECT_TRUE(is_causal({Band{-7, 8, 1, 0}}));
    EXPECT_FALSE(is_causal({Band{-2, 4, 1, 0}}));  // hi = +1 looks ahead
    EXPECT_TRUE(is_causal({}));
    EXPECT_EQ(decode_window_span({}), 1);
    EXPECT_EQ(decode_window_span({Band{-7, 8, 1, 0}}), 8);
    EXPECT_EQ(decode_window_span({Band{-6, 4, 2, 0}}), 7);  // dilated reach
}

TEST(DecodeHelpers, DecodeCompatibility) {
    EXPECT_TRUE(decode_compatible(HybridPattern(32, {Band{-7, 8, 1, 0}}, {0, 1})));
    // Non-causal band.
    EXPECT_FALSE(decode_compatible(sliding_window(32, 8)));
    // Global beyond the ring span would reference evicted rows.
    EXPECT_FALSE(decode_compatible(HybridPattern(32, {Band{-7, 8, 1, 0}}, {16})));
    // 2D grids have no streaming order.
    EXPECT_FALSE(decode_compatible(vil_2d(4, 8, 3, 3, 0)));
}

// -------------------------------------------------------------------------
// DecodeState: ring eviction, pinned globals, dilated windows
// -------------------------------------------------------------------------

TEST(DecodeState, WindowBoundaryEviction) {
    const int span = 4;
    DecodeState state(1, 2, span, {});
    for (int p = 0; p < 7; ++p) {
        Matrix<float> kr(1, 2, 0.0f), vr(1, 2, 0.0f);
        kr(0, 0) = static_cast<float>(p);
        vr(0, 0) = static_cast<float>(100 + p);
        state.append(kr, vr);
        EXPECT_EQ(state.length(), p + 1);
        EXPECT_EQ(state.window_lo(), std::max(0, p + 1 - span));
        EXPECT_EQ(state.compact_rows(), std::min(p + 1, span));
    }
    // Positions 0..2 are evicted; 3..6 live at compact rows 0..3.
    auto [k, v] = state.assemble();
    ASSERT_EQ(k.rows(), span);
    for (int j = 3; j < 7; ++j) {
        EXPECT_EQ(k[0](state.compact_index(j), 0), static_cast<float>(j));
        EXPECT_EQ(v[0](state.compact_index(j), 0), static_cast<float>(100 + j));
    }
}

TEST(DecodeState, GlobalsSurviveEvictionViaPinning) {
    const int span = 3;
    DecodeState state(2, 2, span, {0, 1});
    for (int p = 0; p < 8; ++p) {
        Matrix<float> kr(2, 2, 0.0f), vr(2, 2, 0.0f);
        for (int h = 0; h < 2; ++h) kr(h, 0) = static_cast<float>(10 * h + p);
        state.append(kr, vr);
    }
    EXPECT_EQ(state.num_pinned(), 2);
    EXPECT_EQ(state.window_lo(), 5);
    EXPECT_EQ(state.compact_rows(), 2 + 3);
    auto [k, v] = state.assemble();
    (void)v;
    // Globals 0 and 1 left the ring long ago but stay addressable.
    EXPECT_EQ(state.compact_index(0), 0);
    EXPECT_EQ(state.compact_index(1), 1);
    for (int h = 0; h < 2; ++h) {
        EXPECT_EQ(k[h](0, 0), static_cast<float>(10 * h + 0));
        EXPECT_EQ(k[h](1, 0), static_cast<float>(10 * h + 1));
    }
    // Step 1 view (length 2): both sections still overlap — num_pinned
    // counts only appended globals.
    DecodeState young(1, 2, span, {0, 1});
    Matrix<float> kr(1, 2, 0.0f), vr(1, 2, 0.0f);
    young.append(kr, vr);
    EXPECT_EQ(young.num_pinned(), 1);
    EXPECT_EQ(young.compact_rows(), 1 + 1);
}

TEST(DecodeState, EvictedNonGlobalRejected) {
    DecodeState state(1, 2, 2, {});
    Matrix<float> kr(1, 2, 0.0f), vr(1, 2, 0.0f);
    for (int p = 0; p < 5; ++p) state.append(kr, vr);
    EXPECT_THROW((void)state.compact_index(0), ContractViolation);
    EXPECT_NO_THROW((void)state.compact_index(3));
}

// -------------------------------------------------------------------------
// Micro-plan fingerprints: never alias full plans
// -------------------------------------------------------------------------

TEST(MicroPlanFingerprint, DistinctFromFullPlanAndPerPosition) {
    const std::uint64_t full = 0x1234'5678'9abc'def0ull;
    EXPECT_NE(step_plan_fingerprint(full, 7), full);
    EXPECT_NE(step_plan_fingerprint(full, 7), step_plan_fingerprint(full, 8));
    EXPECT_NE(step_plan_fingerprint(full, 7), step_plan_fingerprint(full ^ 1, 7));
}

TEST(MicroPlanFingerprint, FullAndMicroCoexistInOneCache) {
    const SaloConfig config;
    const HybridPattern pattern(24, {Band{-7, 8, 1, 0}}, {0});
    PlanCache cache(16);
    const CompiledPlanPtr full = cache.get_or_compile(pattern, 16, config);
    const CompiledPlanPtr micro = cache.get_or_derive_step(pattern, 16, config);
    EXPECT_FALSE(full->is_step());
    ASSERT_TRUE(micro->is_step());
    EXPECT_NE(full->fingerprint(), micro->fingerprint());
    EXPECT_EQ(micro->fingerprint(), step_plan_fingerprint(full->fingerprint(), 23));

    // Repeat lookups are hits and return the same shared artifacts. The
    // full plan lives in the LRU; the micro-plan lives in its step family
    // and never takes an LRU slot.
    EXPECT_EQ(cache.get_or_compile(pattern, 16, config).get(), full.get());
    EXPECT_EQ(cache.get_or_derive_step(pattern, 16, config).get(), micro.get());
    EXPECT_EQ(cache.peek(full->fingerprint()), full);
    EXPECT_EQ(cache.peek(micro->fingerprint()), nullptr);
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.size, 1u);
    EXPECT_EQ(s.compiles, 1u);      // the whole-sequence plan
    EXPECT_EQ(s.step_derives, 1u);  // its own transient prefix compile
    EXPECT_EQ(s.hits, 2u);          // the two repeat lookups
}

TEST(MicroPlanFingerprint, StepDerivationSharedStoreTierWide) {
    const SaloConfig config;
    const HybridPattern pattern(16, {Band{-3, 4, 1, 0}}, {});
    auto store = std::make_shared<PlanCache>(16);
    PlanCache a(8), b(8);
    a.attach_shared_store(store);
    b.attach_shared_store(store);
    const CompiledPlanPtr ma = a.get_or_derive_step(pattern, 8, config);
    const CompiledPlanPtr mb = b.get_or_derive_step(pattern, 8, config);
    EXPECT_EQ(ma.get(), mb.get());  // one tier-wide derivation
    EXPECT_EQ(store->stats().step_derives, 1u);
    EXPECT_EQ(a.stats().step_derives, 0u);
    EXPECT_EQ(b.stats().step_derives, 0u);
}

TEST(MicroPlan, GeometryAndTileShape) {
    const SaloConfig config;
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const std::vector<int> globals{0, 1};
    SaloEngine engine(config);
    // Deep steady state: window full, globals evicted from the ring.
    const HybridPattern prefix = prefix_pattern(40, bands, globals);
    const CompiledPlanPtr micro = engine.compile_step(prefix, 16);
    const StepGeometry& sg = micro->step();
    EXPECT_EQ(sg.position, 39);
    EXPECT_EQ(sg.window_span, 8);
    EXPECT_EQ(sg.window_lo, 32);
    EXPECT_EQ(sg.num_globals, 2);
    EXPECT_EQ(sg.compact_rows, 2 + 8);
    EXPECT_EQ(micro->n(), sg.compact_rows);
    // Micro tiles serve exactly one query (id 0) plus global work.
    for (const TileTask& tile : micro->plan().tiles) {
        for (std::int32_t qid : tile.query_ids) EXPECT_TRUE(qid == -1 || qid == 0);
        EXPECT_TRUE(tile.has_window_work() || tile.has_global_work());
    }
    // The micro schedule is much smaller than the full one.
    const CompiledPlanPtr full = engine.compile(prefix, 16);
    EXPECT_LT(micro->plan().tiles.size(), full->plan().tiles.size());
}

// -------------------------------------------------------------------------
// Steady-state relabelling: micro-plans past T0 + P come from templates
// -------------------------------------------------------------------------

struct StreamFamily {
    const char* name;
    std::vector<Band> bands;
    std::vector<int> globals;
};

// Longformer-shaped, several globals, two bands, dilation, mixed dilations
// (overlapping, so band dedup is in play), and more globals than one tile
// row serves (the scheduler's catch-up tiles fire).
std::vector<StreamFamily> steady_state_families() {
    return {
        {"longformer_span256_g0", {Band{-255, 256, 1, 0}}, {0}},
        {"span64_g0_5", {Band{-63, 64, 1, 0}}, {0, 5}},
        {"two_causal_bands", {Band{-15, 16, 1, 0}, Band{-47, 16, 1, 0}}, {0}},
        {"dilation2", {Band{-62, 32, 2, 0}}, {0}},
        {"mixed_dilations", {Band{-9, 10, 1, 0}, Band{-30, 12, 2, 0}}, {1}},
        {"span8_4_globals_catchup", {Band{-7, 8, 1, 0}}, {0, 1, 2, 3}},
    };
}

void expect_same_micro_plan(const CompiledPlan& got, const CompiledPlan& want) {
    ASSERT_TRUE(got.is_step());
    ASSERT_TRUE(want.is_step());
    EXPECT_EQ(got.fingerprint(), want.fingerprint());
    EXPECT_TRUE(got.pattern() == want.pattern());
    const StepGeometry& a = got.step();
    const StepGeometry& b = want.step();
    EXPECT_EQ(a.position, b.position);
    EXPECT_EQ(a.window_lo, b.window_lo);
    EXPECT_EQ(a.num_globals, b.num_globals);
    EXPECT_EQ(a.window_span, b.window_span);
    EXPECT_EQ(a.compact_rows, b.compact_rows);

    const SchedulePlan& pa = got.plan();
    const SchedulePlan& pb = want.plan();
    EXPECT_EQ(pa.n, pb.n);
    EXPECT_EQ(pa.head_dim, pb.head_dim);
    EXPECT_EQ(pa.stats.window_tiles, pb.stats.window_tiles);
    EXPECT_EQ(pa.stats.catchup_tiles, pb.stats.catchup_tiles);
    EXPECT_EQ(pa.stats.valid_slots, pb.stats.valid_slots);
    EXPECT_EQ(pa.stats.total_slots, pb.stats.total_slots);
    EXPECT_EQ(pa.stats.global_row_ops, pb.stats.global_row_ops);
    EXPECT_EQ(pa.stats.global_col_ops, pb.stats.global_col_ops);
    ASSERT_EQ(pa.tiles.size(), pb.tiles.size());
    for (std::size_t i = 0; i < pa.tiles.size(); ++i) {
        const TileTask& x = pa.tiles[i];
        const TileTask& y = pb.tiles[i];
        EXPECT_EQ(x.query_ids, y.query_ids) << "tile " << i;
        EXPECT_EQ(x.valid, y.valid) << "tile " << i;
        EXPECT_EQ(x.global_row_query, y.global_row_query) << "tile " << i;
        EXPECT_EQ(x.global_fresh, y.global_fresh) << "tile " << i;
        EXPECT_EQ(x.global_col_key, y.global_col_key) << "tile " << i;
        EXPECT_EQ(x.global_col_rows, y.global_col_rows) << "tile " << i;
        ASSERT_EQ(x.segments.size(), y.segments.size()) << "tile " << i;
        for (std::size_t k = 0; k < x.segments.size(); ++k) {
            EXPECT_EQ(x.segments[k].band, y.segments[k].band);
            EXPECT_EQ(x.segments[k].col_begin, y.segments[k].col_begin);
            EXPECT_EQ(x.segments[k].col_end, y.segments[k].col_end);
            EXPECT_EQ(x.segments[k].key_base, y.segments[k].key_base);
            EXPECT_EQ(x.segments[k].dilation, y.segments[k].dilation);
        }
    }
}

TEST(StepPeriod, StartAndPeriod) {
    const ArrayGeometry geometry;  // 32 rows
    // T0 = span + largest global; P = rows x lcm(dilations).
    const StepPeriod a = step_period(HybridPattern(8, {Band{-255, 256, 1, 0}}, {0}), geometry);
    EXPECT_EQ(a.start, 256);
    EXPECT_EQ(a.period, 32);
    const StepPeriod b = step_period(
        HybridPattern(8, {Band{-9, 10, 1, 0}, Band{-30, 12, 2, 0}, Band{-9, 2, 3, 0}}, {1, 4}),
        geometry);
    EXPECT_EQ(b.start, 31 + 4);
    EXPECT_EQ(b.period, 32 * 6);
    const StepPeriod c = step_period(HybridPattern(8, {Band{-7, 8, 1, 0}}, {}), geometry);
    EXPECT_EQ(c.start, 8);
}

TEST(StepRelabel, EqualsFullDerivationTileForTile) {
    const SaloConfig config;
    const int d = 64;
    for (const StreamFamily& fam : steady_state_families()) {
        SCOPED_TRACE(fam.name);
        SaloEngine engine(config);
        const StepPeriod sp =
            step_period(HybridPattern(1024, fam.bands, fam.globals), config.geometry);
        ASSERT_GT(sp.period, 0);
        bool catchup_seen = false;
        for (int t = 0; t < sp.start + 3 * sp.period; ++t) {
            const HybridPattern prefix = prefix_pattern(t + 1, fam.bands, fam.globals);
            const CompiledPlanPtr got = engine.compile_step(prefix, d);
            const CompiledPlan want = derive_micro_plan(compile(prefix, d, config));
            SCOPED_TRACE(t);
            expect_same_micro_plan(*got, want);
            if (t >= sp.start) catchup_seen |= want.schedule_stats().catchup_tiles > 0;
            if (testing::Test::HasFailure()) return;
        }
        const PlanCacheStats st = engine.plan_cache_stats();
        EXPECT_EQ(st.step_relabels, static_cast<std::uint64_t>(2 * sp.period));
        if (fam.globals.size() == 4) EXPECT_TRUE(catchup_seen);
    }
}

TEST(StepRelabel, SeededRandomFamiliesMatchFullDerivation) {
    // Beyond the six named families: random causal band sets (dilations
    // 1-4, overlapping bands), up to 6 globals, three array heights, both
    // packing modes, and a small cache that evicts families.
    Rng rng(2024u);
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
    };
    int tested = 0;
    while (tested < 24) {
        std::vector<Band> bands;
        for (int b = pick(1, 3); b > 0; --b) {
            const int dilation = pick(1, 4);
            const int count = pick(1, 24);
            bands.push_back(Band{-(count - 1) * dilation - pick(0, 8), count, dilation, 0});
        }
        const int span = decode_window_span(bands);
        std::vector<int> globals;
        for (int g = pick(0, 6); g > 0; --g) globals.push_back(pick(0, span - 1));
        std::sort(globals.begin(), globals.end());
        globals.erase(std::unique(globals.begin(), globals.end()), globals.end());
        SaloConfig config;
        config.geometry.rows = 8 << pick(0, 2);
        config.geometry.cols = pick(0, 1) == 0 ? 8 : 32;
        if (pick(0, 1) == 0) config.schedule_options.packing = PackingMode::kPerBand;
        const StepPeriod sp = step_period(HybridPattern(4096, bands, globals), config.geometry);
        const int horizon = sp.start + 2 * sp.period + 5;
        if (horizon > 400) continue;
        ++tested;
        PlanCache cache(2);
        for (int t = 0; t < horizon; ++t) {
            const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
            SCOPED_TRACE(testing::Message() << "family " << tested << " t=" << t);
            expect_same_micro_plan(*cache.get_or_derive_step(prefix, 16, config),
                                   derive_micro_plan(compile(prefix, 16, config)));
            if (testing::Test::HasFailure()) return;
        }
        const PlanCacheStats st = cache.stats();
        EXPECT_LE(st.compiles + st.step_derives,
                  static_cast<std::uint64_t>(sp.start + sp.period));
    }
}

TEST(StepRelabel, LongStreamRunsAtMostT0PlusPSchedulerPasses) {
    const SaloConfig config;
    const int horizon = 1024;
    for (const StreamFamily& fam : steady_state_families()) {
        SCOPED_TRACE(fam.name);
        SaloEngine engine(config);
        const StepPeriod sp =
            step_period(HybridPattern(1024, fam.bands, fam.globals), config.geometry);
        for (int t = 0; t < horizon; ++t)
            (void)engine.compile_step(prefix_pattern(t + 1, fam.bands, fam.globals), 64);
        const PlanCacheStats st = engine.plan_cache_stats();
        EXPECT_LE(st.compiles + st.step_derives,
                  static_cast<std::uint64_t>(sp.start + sp.period));
        EXPECT_EQ(st.step_relabels,
                  static_cast<std::uint64_t>(horizon - (sp.start + sp.period)));
    }
}

TEST(StepRelabel, JumpingPastTheFirstPeriodDerivesTemplatesLazily) {
    // A cache that never saw the first period still relabels: the residue's
    // template position is derived on demand, once.
    const SaloConfig config;
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const std::vector<int> globals{0, 1};
    PlanCache cache(8);
    const HybridPattern at(500, bands, globals);
    const StepPeriod sp = step_period(at, config.geometry);
    const CompiledPlanPtr first = cache.get_or_derive_step(at, 16, config);
    expect_same_micro_plan(*first, derive_micro_plan(compile(at, 16, config)));
    EXPECT_EQ(cache.stats().step_derives, 1u);  // the template position only
    // Same residue one period later: a template hit, no scheduler pass.
    const HybridPattern later(500 + sp.period, bands, globals);
    expect_same_micro_plan(*cache.get_or_derive_step(later, 16, config),
                           derive_micro_plan(compile(later, 16, config)));
    const PlanCacheStats st = cache.stats();
    EXPECT_EQ(st.compiles, 0u);
    EXPECT_EQ(st.step_derives, 1u);
    EXPECT_EQ(st.step_relabels, 2u);
}

TEST(StepRelabel, RelabelRejectsAnotherResidueOrShape) {
    const SaloConfig config;
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const HybridPattern at(40, bands, {0});
    const CompiledPlan tmpl = derive_micro_plan(compile(at, 16, config));
    EXPECT_NO_THROW((void)relabel_micro_plan(tmpl, HybridPattern(72, bands, {0})));
    EXPECT_THROW((void)relabel_micro_plan(tmpl, HybridPattern(73, bands, {0})),
                 ContractViolation);
    EXPECT_THROW((void)relabel_micro_plan(tmpl, HybridPattern(72, bands, {1})),
                 ContractViolation);
}

// -------------------------------------------------------------------------
// Step families: warm-up plans kept per shape, never in the LRU
// -------------------------------------------------------------------------

TEST(StepFamily, DecodeStreamLeavesWholeSequencePlansCached) {
    // A stream past T0 + 2P derives T0 + P warm-up plans; none of them may
    // take an LRU slot, so an encode shape compiled before it survives.
    const SaloConfig config;
    const std::vector<Band> bands{Band{-63, 64, 1, 0}};
    const std::vector<int> globals{0};
    SaloEngine engine(config);  // default capacity: 64 plans
    PlanCache cache(static_cast<std::size_t>(config.plan_cache_capacity));
    const HybridPattern encode(512, bands, globals);
    const CompiledPlanPtr plan = cache.get_or_compile(encode, 64, config);
    const CompiledPlanPtr engine_plan = engine.compile(encode, 64);
    const StepPeriod sp = step_period(encode, config.geometry);
    const int steps = sp.start + 2 * sp.period + 5;
    ASSERT_GT(2 * (sp.start + sp.period), config.plan_cache_capacity);
    for (int t = 0; t < steps; ++t) {
        (void)cache.get_or_derive_step(prefix_pattern(t + 1, bands, globals), 64, config);
        (void)engine.compile_step(prefix_pattern(t + 1, bands, globals), 64);
    }
    EXPECT_EQ(cache.peek(plan->fingerprint()), plan);
    EXPECT_EQ(cache.stats().size, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.get_or_compile(encode, 64, config), plan);
    EXPECT_EQ(cache.stats().compiles, 1u);
    EXPECT_EQ(engine.compile(encode, 64), engine_plan);
    EXPECT_EQ(engine.plan_cache_stats().compiles, 1u);
}

TEST(StepFamily, CapacityPlusOneFamiliesEvictTheOldestWarmUp) {
    const SaloConfig config;
    PlanCache cache(2);
    const std::vector<std::vector<Band>> shapes = {
        {Band{-7, 8, 1, 0}}, {Band{-5, 6, 1, 0}}, {Band{-3, 4, 1, 0}}};
    const auto warm = [&](const std::vector<Band>& bands) {
        for (int t = 0; t < 4; ++t) (void)cache.get_or_derive_step(
            HybridPattern(t + 1, bands), 16, config);
    };
    warm(shapes[0]);
    warm(shapes[1]);
    EXPECT_EQ(cache.stats().step_derives, 8u);
    warm(shapes[0]);  // both families kept: all hits
    EXPECT_EQ(cache.stats().step_derives, 8u);
    warm(shapes[2]);  // a third family evicts the least recently used one
    EXPECT_EQ(cache.stats().step_derives, 12u);
    warm(shapes[0]);  // still kept
    EXPECT_EQ(cache.stats().step_derives, 12u);
    warm(shapes[1]);  // its warm-up plans were dropped: derived again
    EXPECT_EQ(cache.stats().step_derives, 16u);
    EXPECT_EQ(cache.stats().size, 0u);  // none of it in the LRU
}

TEST(StepFamily, WarmUpPastTheByteBoundKeepsTheFirstPositionsAndAllTemplates) {
    // Span 512 on the default array: the warm-up below T0 outgrows
    // kStepWarmUpBytes. The first stream keeps positions while they fit
    // and every template; a second stream of the shape re-derives exactly
    // the positions that were not kept, hits the rest, and every plan
    // still equals a full derivation.
    const SaloConfig config;
    const int span = 512, d = 8;
    const std::vector<Band> bands{Band{-(span - 1), span, 1, 0}};
    const std::vector<int> globals{0};
    const StepPeriod sp = step_period(HybridPattern(4096, bands, globals), config.geometry);
    const int warm = sp.start + sp.period;
    PlanCache cache(4);

    std::size_t kept_bytes = 0, template_bytes = 0;
    int kept = 0;
    const auto stream = [&](bool first) {
        for (int t = 0; t < warm + 3; ++t) {
            const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
            const CompiledPlan want = derive_micro_plan(compile(prefix, d, config));
            SCOPED_TRACE(t);
            expect_same_micro_plan(*cache.get_or_derive_step(prefix, d, config), want);
            if (testing::Test::HasFailure()) return;
            if (!first || t >= warm) continue;
            // The retention rule, replayed: templates always, positions
            // below T0 while the family's bytes stay within the bound.
            const std::size_t bytes = schedule_bytes(want);
            if (t >= sp.start) {
                template_bytes += bytes;
            } else if (kept_bytes + bytes <= kStepWarmUpBytes) {
                kept_bytes += bytes;
                ++kept;
            }
        }
    };

    stream(true);
    const PlanCacheStats one = cache.stats();
    ASSERT_LT(kept, sp.start);  // the bound was reached
    EXPECT_EQ(one.step_derives, static_cast<std::uint64_t>(warm));
    EXPECT_EQ(one.step_plan_bytes, kept_bytes + template_bytes);
    EXPECT_LE(one.step_plan_bytes - template_bytes, kStepWarmUpBytes);

    stream(false);
    const PlanCacheStats two = cache.stats();
    EXPECT_EQ(two.step_derives - one.step_derives,
              static_cast<std::uint64_t>(sp.start - kept));
    EXPECT_EQ(two.misses - one.misses, static_cast<std::uint64_t>(sp.start - kept));
    // Kept positions, the P templates, and the 3 relabelled positions'
    // template lookups.
    EXPECT_EQ(two.hits - one.hits, static_cast<std::uint64_t>(kept + sp.period + 3));
    EXPECT_EQ(two.step_plan_bytes, one.step_plan_bytes);
    EXPECT_EQ(two.size, 0u);
}

TEST(StepFamily, ShapeWithoutAPeriodDerivesLatePositionsForEveryStream) {
    // lcm(dilations) x rows > 16384: no period, no templates. The warm-up
    // below T0 is kept as usual; every position >= T0 derives transiently,
    // again for every stream, and still equals a full derivation.
    const SaloConfig config;
    const std::vector<Band> bands{Band{-3, 4, 1, 0}, Band{-9, 1, 601, 0}};
    const std::vector<int> globals{0};
    const StepPeriod sp = step_period(HybridPattern(64, bands, globals), config.geometry);
    ASSERT_EQ(sp.period, 0);
    const int late = 5;
    PlanCache cache(4);
    for (int stream = 0; stream < 2; ++stream)
        for (int t = 0; t < sp.start + late; ++t) {
            const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
            SCOPED_TRACE(testing::Message() << "stream " << stream << " t=" << t);
            expect_same_micro_plan(*cache.get_or_derive_step(prefix, 16, config),
                                   derive_micro_plan(compile(prefix, 16, config)));
            if (testing::Test::HasFailure()) return;
        }
    const PlanCacheStats st = cache.stats();
    EXPECT_EQ(st.step_derives, static_cast<std::uint64_t>(sp.start + 2 * late));
    EXPECT_EQ(st.step_relabels, 0u);
    EXPECT_EQ(st.size, 0u);
}

// -------------------------------------------------------------------------
// run_step bit-identity against full-prefix encode
// -------------------------------------------------------------------------

TEST(RunStep, SlidingWindowBitIdentity) {
    const SaloConfig config;
    for (const Fidelity f : {Fidelity::kFunctional, Fidelity::kGolden})
        expect_stepwise_bit_identity(config, {Band{-7, 8, 1, 0}}, {}, 2, 16, 24, f, 11u);
}

TEST(RunStep, GlobalsBitIdentityIncludingStepOnGlobal) {
    // Globals at 0, 1 and 3: steps 0..3 include steps ON global positions
    // (the global PE row path), later steps exercise the global PE column
    // against pinned rows after ring eviction.
    const SaloConfig config;
    for (const Fidelity f : {Fidelity::kFunctional, Fidelity::kGolden})
        expect_stepwise_bit_identity(config, {Band{-5, 6, 1, 0}}, {0, 1, 3}, 2, 16, 20,
                                     f, 23u);
}

TEST(RunStep, DilatedWindowBitIdentity) {
    const SaloConfig config;
    for (const Fidelity f : {Fidelity::kFunctional, Fidelity::kGolden})
        expect_stepwise_bit_identity(config, {Band{-6, 4, 2, 0}}, {0}, 2, 16, 20, f, 37u);
}

TEST(RunStep, MultiBandBitIdentity) {
    // Two bands (a tight recent window plus a sparser dilated reach), the
    // shape SALO's column packing exists for.
    const SaloConfig config;
    expect_stepwise_bit_identity(config, {Band{-3, 4, 1, 0}, Band{-9, 3, 3, 0}}, {0}, 2,
                                 16, 24, Fidelity::kFunctional, 41u);
}

TEST(RunStep, ReferenceDatapathBitIdentity) {
    // Every int8 run_step against row t of the seed datapath's full-prefix
    // run (reference_run).
    const SaloConfig config;
    expect_stepwise_bit_identity(config, {Band{-7, 8, 1, 0}}, {0, 1}, 2, 16, 16,
                                 Fidelity::kFunctional, 53u, /*seed_reference=*/true);
}

TEST(RunStep, CycleAccurateBitIdentity) {
    // Small case: the cycle-accurate array is slow but must agree too.
    const SaloConfig config;
    expect_stepwise_bit_identity(config, {Band{-3, 4, 1, 0}}, {0}, 1, 8, 8,
                                 Fidelity::kCycleAccurate, 61u);
}

TEST(RunStep, QuantizedOverloadRejectsGolden) {
    // The int8 overload has no float rows to run the golden oracle on.
    const SaloConfig config;
    SaloEngine engine(config);
    const std::vector<Band> bands{Band{-3, 4, 1, 0}};
    DecodeState state(1, 8, decode_window_span(bands), {});
    state.append(Matrix<float>(1, 8, 0.5f), Matrix<float>(1, 8, 0.25f));
    const CompiledPlanPtr micro = engine.compile_step(HybridPattern(1, bands), 8);
    auto [kq, vq] = state.assemble_quantized();
    RunOptions golden;
    golden.fidelity = Fidelity::kGolden;
    EXPECT_THROW((void)engine.run_step(*micro, Matrix<float>(1, 8, 1.0f), kq, vq, 0.5f, golden),
                 ContractViolation);
    EXPECT_NO_THROW((void)engine.run_step(*micro, Matrix<float>(1, 8, 1.0f), kq, vq, 0.5f));
}

TEST(RunStep, ParallelHeadsMatchSequential) {
    const SaloConfig config;
    SaloEngine engine(config);
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const std::vector<int> globals{0};
    const int heads = 4, d = 16, steps = 12;
    Rng rng(71u);
    const Tensor3<float> k_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> v_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> q_all = random_tensor3(heads, steps, d, rng);
    DecodeState state(heads, d, decode_window_span(bands), globals);
    for (int t = 0; t < steps; ++t) {
        Matrix<float> q_row(heads, d, 0.0f), k_row(heads, d, 0.0f), v_row(heads, d, 0.0f);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) {
                q_row(h, x) = q_all[h](t, x);
                k_row(h, x) = k_all[h](t, x);
                v_row(h, x) = v_all[h](t, x);
            }
        state.append(k_row, v_row);
        const CompiledPlanPtr micro =
            engine.compile_step(prefix_pattern(t + 1, bands, globals), d);
        auto [kc, vc] = state.assemble();
        RunOptions seq, par;
        seq.thread_budget = 1;
        par.thread_budget = 4;  // an explicit budget > 1 fans heads out
        const StepResult a = engine.run_step(*micro, q_row, kc, vc, 0.25f, seq);
        const StepResult b = engine.run_step(*micro, q_row, kc, vc, 0.25f, par);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) ASSERT_EQ(a.output[h](0, x), b.output[h](0, x));
    }
}

void expect_sim_stats_equal(const SimStats& a, const SimStats& b) {
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.tiles, b.tiles);
    for (int s = 0; s < 5; ++s) EXPECT_EQ(a.stage_totals.stage[s], b.stage_totals.stage[s]);
    EXPECT_EQ(a.activity.mac_ops, b.activity.mac_ops);
    EXPECT_EQ(a.activity.exp_ops, b.activity.exp_ops);
    EXPECT_EQ(a.activity.valid_slots, b.activity.valid_slots);
    EXPECT_EQ(a.activity.array_slots, b.activity.array_slots);
    EXPECT_EQ(a.activity.pe_cycles, b.activity.pe_cycles);
}

TEST(StepThreads, AutomaticBudgetFansOutOnlyAboveTheCrossover) {
    EXPECT_EQ(step_threads(0, 4, kStepFanOutWork - 1), 1);
    EXPECT_EQ(step_threads(0, 4, kStepFanOutWork), 1);
    EXPECT_EQ(step_threads(0, 4, kStepFanOutWork + 1), 4);
    EXPECT_EQ(step_threads(-3, 4, kStepFanOutWork + 1), 4);
    // Explicit budgets are honoured whatever the work.
    EXPECT_EQ(step_threads(4, 8, 1), 4);
    EXPECT_EQ(step_threads(1, 4, 100 * kStepFanOutWork), 1);
    // The Longformer decode step (12 heads x 64, span 256 + 1 pinned
    // global) runs inline.
    EXPECT_EQ(step_threads(0, 4, std::int64_t{12} * (256 + 1) * 64), 1);
}

TEST(RunStep, StepAboveCrossoverMatchesOneThreadRun) {
    // A window wide enough that the automatic budget fans the heads out
    // over a 4-lane pool: bit-identical to the 1-thread run.
    SaloConfig config;
    config.num_threads = 4;
    const SaloEngine engine(config);
    const int heads = 4, d = 64;
    const int span = static_cast<int>(kStepFanOutWork / (heads * d)) + 8;
    const std::vector<Band> bands{Band{-(span - 1), span, 1, 0}};
    const std::vector<int> globals{0, 3};
    const int t = span + 40;  // ring full, both globals evicted
    Rng rng(131u);
    DecodeState state(heads, d, span, globals);
    for (int p = 0; p <= t; ++p)
        state.append(random_matrix(heads, d, rng), random_matrix(heads, d, rng));
    const Matrix<float> q_row = random_matrix(heads, d, rng);
    const CompiledPlanPtr micro = engine.compile_step(prefix_pattern(t + 1, bands, globals), d);
    const auto [kq, vq] = state.assemble_quantized();
    ASSERT_GT(std::int64_t{heads} * kq.rows() * d, kStepFanOutWork);

    RunOptions one, automatic;
    one.thread_budget = 1;
    const StepResult a = engine.run_step(*micro, q_row, kq, vq, 0.125f, one);
    const StepResult b = engine.run_step(*micro, q_row, kq, vq, 0.125f, automatic);
    for (int h = 0; h < heads; ++h)
        for (int x = 0; x < d; ++x) ASSERT_EQ(a.output[h](0, x), b.output[h](0, x));
    expect_sim_stats_equal(a.stats, b.stats);
}

// -------------------------------------------------------------------------
// DecodeSession: stream lifecycle, batching, eviction, conservation
// -------------------------------------------------------------------------

Matrix<float> head_row(const Tensor3<float>& all, int t, int heads, int d) {
    Matrix<float> row(heads, d, 0.0f);
    for (int h = 0; h < heads; ++h)
        for (int x = 0; x < d; ++x) row(h, x) = all[h](t, x);
    return row;
}

TEST(DecodeSession, StepwiseBitIdentityVsFullEncode) {
    const SaloConfig config;
    const std::vector<Band> bands = {Band{-7, 8, 1, 0}};
    const std::vector<int> globals = {0, 1};
    const int heads = 2, d = 16, steps = 12;
    const HybridPattern pattern(steps, bands, globals);

    DecodeSession session(config);
    SaloEngine ref(config);
    Rng rng(77u);
    const Tensor3<float> q_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> k_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> v_all = random_tensor3(heads, steps, d, rng);

    const StreamId s = session.open_stream(pattern, heads, d, 0.25f);
    for (int t = 0; t < steps; ++t) {
        StepRequest req;
        req.q_row = head_row(q_all, t, heads, d);
        req.k_row = head_row(k_all, t, heads, d);
        req.v_row = head_row(v_all, t, heads, d);
        const StepResult step = session.step(s, std::move(req)).get();
        EXPECT_EQ(step.position, t);

        Tensor3<float> q_pre(heads, t + 1, d), k_pre(heads, t + 1, d),
            v_pre(heads, t + 1, d);
        for (int h = 0; h < heads; ++h)
            for (int r = 0; r <= t; ++r)
                for (int x = 0; x < d; ++x) {
                    q_pre[h](r, x) = q_all[h](r, x);
                    k_pre[h](r, x) = k_all[h](r, x);
                    v_pre[h](r, x) = v_all[h](r, x);
                }
        const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
        const LayerResult full =
            ref.run(*ref.compile(prefix, d), q_pre, k_pre, v_pre, 0.25f);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x)
                ASSERT_EQ(step.output[h](0, x), full.output[h](t, x))
                    << "t=" << t << " h=" << h << " x=" << x;
    }
    session.close_stream(s);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(steps));
    EXPECT_EQ(st.steps, st.submitted);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.accounted(), st.submitted);
    EXPECT_EQ(st.evicted_streams, 0u);
}

TEST(DecodeSession, LongHorizonBitIdentityAcrossFidelitiesAndThreads) {
    // Past T0 + 2P the ring has wrapped many times and every plan is a
    // relabelled template; the session feeds the int8 rows quantized at
    // append. Each step must equal, bit for bit, the engine-only float
    // run_step on assemble() (output and SimStats) at every position, and
    // row t of the full-prefix encode at sampled positions.
    const std::vector<Band> bands = {Band{-7, 8, 1, 0}};
    const std::vector<int> globals = {0, 1, 2, 3};
    const int heads = 2, d = 8;
    const StepPeriod sp = step_period(HybridPattern(1024, bands, globals), ArrayGeometry{});
    const int t0 = sp.start;
    const int steps = t0 + 2 * sp.period + 3;
    ASSERT_GT(steps, 2 * decode_window_span(bands));
    const HybridPattern pattern(steps, bands, globals);
    Rng rng(97u);
    const Tensor3<float> q_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> k_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> v_all = random_tensor3(heads, steps, d, rng);
    const std::set<int> sampled = {0, 3, 7, t0, t0 + sp.period, steps - 1};

    for (const Fidelity fidelity :
         {Fidelity::kFunctional, Fidelity::kCycleAccurate, Fidelity::kGolden}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message() << "fidelity=" << static_cast<int>(fidelity)
                                            << " threads=" << threads);
            SaloConfig config;
            config.fidelity = fidelity;
            config.num_threads = threads;
            DecodeSession session(config);
            const SaloEngine ref(config);
            DecodeState state(heads, d, decode_window_span(bands), globals);
            const StreamId s = session.open_stream(pattern, heads, d, 0.25f);
            for (int t = 0; t < steps; ++t) {
                StepRequest req;
                req.q_row = head_row(q_all, t, heads, d);
                req.k_row = head_row(k_all, t, heads, d);
                req.v_row = head_row(v_all, t, heads, d);
                const StepResult got = session.step(s, std::move(req)).get();

                state.append(head_row(k_all, t, heads, d), head_row(v_all, t, heads, d));
                const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
                auto [kc, vc] = state.assemble();
                auto [kq, vq] = state.assemble_quantized();
                for (int h = 0; h < heads; ++h) {
                    ASSERT_EQ(kq[h], quantize<InputFx>(kc[h])) << "t=" << t;
                    ASSERT_EQ(vq[h], quantize<InputFx>(vc[h])) << "t=" << t;
                }
                const StepResult want =
                    ref.run_step(*ref.compile_step(prefix, d), head_row(q_all, t, heads, d),
                                 kc, vc, 0.25f);
                ASSERT_EQ(got.position, t);
                for (int h = 0; h < heads; ++h)
                    for (int x = 0; x < d; ++x)
                        ASSERT_EQ(got.output[h](0, x), want.output[h](0, x))
                            << "t=" << t << " h=" << h << " x=" << x;
                expect_sim_stats_equal(got.stats, want.stats);

                if (sampled.count(t) == 0) continue;
                Tensor3<float> q_pre(heads, t + 1, d), k_pre(heads, t + 1, d),
                    v_pre(heads, t + 1, d);
                for (int h = 0; h < heads; ++h)
                    for (int r = 0; r <= t; ++r)
                        for (int x = 0; x < d; ++x) {
                            q_pre[h](r, x) = q_all[h](r, x);
                            k_pre[h](r, x) = k_all[h](r, x);
                            v_pre[h](r, x) = v_all[h](r, x);
                        }
                const LayerResult full =
                    ref.run(*ref.compile(prefix, d), q_pre, k_pre, v_pre, 0.25f);
                for (int h = 0; h < heads; ++h)
                    for (int x = 0; x < d; ++x)
                        ASSERT_EQ(got.output[h](0, x), full.output[h](t, x))
                            << "t=" << t << " h=" << h << " x=" << x;
            }
            session.close();
            const SessionStats st = session.stats();
            EXPECT_EQ(st.completed, static_cast<std::uint64_t>(steps));
            EXPECT_EQ(st.plan_cache.step_relabels,
                      static_cast<std::uint64_t>(steps - (t0 + sp.period)));
        }
    }
}

TEST(DecodeSession, ConcurrentStreamsBitIdenticalAndConserved) {
    const SaloConfig config;
    const std::vector<Band> bands = {Band{-5, 6, 1, 0}};
    const std::vector<int> globals = {0};
    const int heads = 2, d = 8, steps = 10, num_streams = 8;
    const HybridPattern pattern(steps, bands, globals);

    DecodeSessionOptions options;
    options.num_shards = 2;
    DecodeSession session(config, options);
    SaloEngine ref(config);

    std::vector<Tensor3<float>> q_all, k_all, v_all;
    std::vector<StreamId> ids;
    for (int i = 0; i < num_streams; ++i) {
        Rng rng(1000u + static_cast<unsigned>(i));
        q_all.push_back(random_tensor3(heads, steps, d, rng));
        k_all.push_back(random_tensor3(heads, steps, d, rng));
        v_all.push_back(random_tensor3(heads, steps, d, rng));
        ids.push_back(session.open_stream(pattern, heads, d, 0.5f,
                                          i % 2 == 0 ? "alice" : "bob"));
    }

    // All streams step in lockstep so the dispatcher actually batches.
    std::vector<std::vector<Tensor3<float>>> outputs(
        static_cast<std::size_t>(num_streams));
    for (int t = 0; t < steps; ++t) {
        std::vector<std::future<StepResult>> futures;
        for (int i = 0; i < num_streams; ++i) {
            StepRequest req;
            req.q_row = head_row(q_all[static_cast<std::size_t>(i)], t, heads, d);
            req.k_row = head_row(k_all[static_cast<std::size_t>(i)], t, heads, d);
            req.v_row = head_row(v_all[static_cast<std::size_t>(i)], t, heads, d);
            futures.push_back(session.step(ids[static_cast<std::size_t>(i)],
                                           std::move(req)));
        }
        for (int i = 0; i < num_streams; ++i)
            outputs[static_cast<std::size_t>(i)].push_back(
                futures[static_cast<std::size_t>(i)].get().output);
    }
    session.close();

    // Bitwise identical to the full-prefix encode of each stream's inputs.
    // The reference for step t is the length-(t+1) prefix encode: a global
    // row attends every later key, so rows of a longer encode are not a
    // valid reference for the step that produced them.
    for (int i = 0; i < num_streams; ++i) {
        const auto& q = q_all[static_cast<std::size_t>(i)];
        const auto& k = k_all[static_cast<std::size_t>(i)];
        const auto& v = v_all[static_cast<std::size_t>(i)];
        for (int t = 0; t < steps; ++t) {
            Tensor3<float> q_pre(heads, t + 1, d), k_pre(heads, t + 1, d),
                v_pre(heads, t + 1, d);
            for (int h = 0; h < heads; ++h)
                for (int r = 0; r <= t; ++r)
                    for (int x = 0; x < d; ++x) {
                        q_pre[h](r, x) = q[h](r, x);
                        k_pre[h](r, x) = k[h](r, x);
                        v_pre[h](r, x) = v[h](r, x);
                    }
            const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
            const LayerResult full =
                ref.run(*ref.compile(prefix, d), q_pre, k_pre, v_pre, 0.5f);
            for (int h = 0; h < heads; ++h)
                for (int x = 0; x < d; ++x)
                    ASSERT_EQ(outputs[static_cast<std::size_t>(i)]
                                     [static_cast<std::size_t>(t)][h](0, x),
                              full.output[h](t, x))
                        << "stream=" << i << " t=" << t;
        }
    }

    const SessionStats st = session.stats();
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(num_streams * steps));
    EXPECT_EQ(st.steps, st.submitted);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.accounted(), st.submitted);

    const auto tenants = session.tenant_stats();
    ASSERT_EQ(tenants.size(), 2u);
    std::uint64_t total = 0;
    for (const auto& [name, ts] : tenants) {
        EXPECT_EQ(ts.accounted(), ts.submitted) << name;
        EXPECT_EQ(ts.steps, ts.submitted) << name;
        total += ts.submitted;
    }
    EXPECT_EQ(total, st.submitted);
}

TEST(DecodeSession, InjectedFaultEvictsStreamAndLaterStepsFailTyped) {
    const SaloConfig config;
    const HybridPattern pattern(8, {Band{-3, 4, 1, 0}}, {});
    const int heads = 1, d = 8;

    DecodeSession session(config);
    Rng rng(5u);
    const Tensor3<float> rows = random_tensor3(heads, 8, d, rng);

    const StreamId s = session.open_stream(pattern, heads, d, 0.5f, "t0");
    auto make_req = [&](int t) {
        StepRequest req;
        req.q_row = head_row(rows, t, heads, d);
        req.k_row = head_row(rows, t, heads, d);
        req.v_row = head_row(rows, t, heads, d);
        return req;
    };

    // Step 0 completes clean.
    EXPECT_NO_THROW(session.step(s, make_req(0)).get());

    // Step 1 carries a per-step injector that faults the first tile.
    FaultInjector::Config fc;
    fc.fault_tiles = {0};
    StepRequest faulted = make_req(1);
    faulted.fault_injector = std::make_shared<FaultInjector>(fc);
    EXPECT_THROW(session.step(s, std::move(faulted)).get(), EngineFault);

    // The stream is now evicted: later steps fail fast with StreamEvicted
    // and never execute.
    EXPECT_THROW(session.step(s, make_req(2)).get(), StreamEvicted);
    EXPECT_THROW(session.step(s, make_req(3)).get(), StreamEvicted);
    session.close_stream(s);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.submitted, 4u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 3u);  // EngineFault + 2x StreamEvicted
    EXPECT_EQ(st.steps, st.submitted);
    EXPECT_EQ(st.accounted(), st.submitted);
    EXPECT_EQ(st.evicted_streams, 1u);
}

TEST(DecodeSession, QuarantinedShardEvictsItsStreams) {
    const SaloConfig config;
    const HybridPattern pattern(4, {Band{-3, 4, 1, 0}}, {});
    const int heads = 1, d = 8;

    // One shard, always faulting: every executed step records a breaker
    // failure, so the shard quarantines after min_samples outcomes.
    DecodeSessionOptions options;
    options.num_shards = 1;
    FaultInjector::Config fc;
    fc.tile_fault_rate = 1.0;
    options.shard_fault_injectors = {std::make_shared<FaultInjector>(fc)};
    options.health.window = 4;
    options.health.min_samples = 2;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = std::chrono::milliseconds(60000);
    DecodeSession session(config, options);

    Rng rng(9u);
    const Tensor3<float> rows = random_tensor3(heads, 4, d, rng);
    auto make_req = [&](int t) {
        StepRequest req;
        req.q_row = head_row(rows, t, heads, d);
        req.k_row = head_row(rows, t, heads, d);
        req.v_row = head_row(rows, t, heads, d);
        return req;
    };

    // Two streams fault (two breaker failures -> quarantine)...
    const StreamId a = session.open_stream(pattern, heads, d, 0.5f);
    const StreamId b = session.open_stream(pattern, heads, d, 0.5f);
    EXPECT_THROW(session.step(a, make_req(0)).get(), EngineFault);
    EXPECT_THROW(session.step(b, make_req(0)).get(), EngineFault);

    // ...so the third stream's step is refused by the pinned shard: the
    // stream fails with the typed StreamEvicted, never silently migrating.
    const StreamId c = session.open_stream(pattern, heads, d, 0.5f);
    EXPECT_THROW(session.step(c, make_req(0)).get(), StreamEvicted);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_GE(st.quarantined_shard_events, 1u);
    EXPECT_EQ(st.evicted_streams, 3u);
    EXPECT_EQ(st.failed, 3u);
    EXPECT_EQ(st.accounted(), st.submitted);
}

TEST(DecodeSession, ExpiredDeadlineShedsStepAndEvictsStream) {
    const SaloConfig config;
    const HybridPattern pattern(4, {Band{-3, 4, 1, 0}}, {});
    DecodeSession session(config);
    Rng rng(13u);
    const Tensor3<float> rows = random_tensor3(1, 4, 8, rng);

    const StreamId s = session.open_stream(pattern, 1, 8, 0.5f);
    StepRequest req;
    req.q_row = head_row(rows, 0, 1, 8);
    req.k_row = head_row(rows, 0, 1, 8);
    req.v_row = head_row(rows, 0, 1, 8);
    req.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EXPECT_THROW(session.step(s, std::move(req)).get(), DeadlineExceeded);

    StepRequest next;
    next.q_row = head_row(rows, 1, 1, 8);
    next.k_row = head_row(rows, 1, 1, 8);
    next.v_row = head_row(rows, 1, 1, 8);
    EXPECT_THROW(session.step(s, std::move(next)).get(), StreamEvicted);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.timed_out, 1u);
    EXPECT_EQ(st.shed_expired, 1u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.evicted_streams, 1u);
    EXPECT_EQ(st.accounted(), st.submitted);
}

TEST(DecodeSession, LifecycleContracts) {
    const SaloConfig config;
    const HybridPattern pattern(2, {Band{-1, 2, 1, 0}}, {});
    DecodeSession session(config);
    Rng rng(17u);
    const Tensor3<float> rows = random_tensor3(1, 3, 8, rng);
    auto make_req = [&](int t) {
        StepRequest req;
        req.q_row = head_row(rows, t, 1, 8);
        req.k_row = head_row(rows, t, 1, 8);
        req.v_row = head_row(rows, t, 1, 8);
        return req;
    };

    // Non-causal and over-span-global patterns are rejected at open.
    EXPECT_THROW(session.open_stream(HybridPattern(8, {Band{-1, 3, 1, 0}}, {}), 1, 8,
                                     0.5f),
                 ContractViolation);
    EXPECT_THROW(session.open_stream(HybridPattern(8, {Band{-1, 2, 1, 0}}, {5}), 1, 8,
                                     0.5f),
                 ContractViolation);

    const StreamId s = session.open_stream(pattern, 1, 8, 0.5f);
    EXPECT_NO_THROW(session.step(s, make_req(0)).get());
    EXPECT_NO_THROW(session.step(s, make_req(1)).get());
    // The pattern's horizon is n = 2: a third step is a caller bug.
    EXPECT_THROW(session.step(s, make_req(2)), ContractViolation);
    // Shape mismatches are synchronous caller bugs too.
    {
        StepRequest bad = make_req(0);
        bad.q_row = Matrix<float>(1, 4, 0.0f);
        EXPECT_THROW(session.step(s, std::move(bad)), ContractViolation);
    }
    // Unknown stream ids are rejected.
    EXPECT_THROW(session.step(s + 1000, make_req(0)), ContractViolation);

    session.close_stream(s);
    EXPECT_THROW(session.stream_shard(s), ContractViolation);  // id is gone

    session.close();
    EXPECT_THROW(session.open_stream(pattern, 1, 8, 0.5f), SessionClosed);
    EXPECT_THROW(session.step(s, make_req(0)), SessionClosed);
}

TEST(DecodeSession, StreamsOfTwoHeadDimsShareOneThreadsStepBuffers) {
    // Lone steps of two streams that differ only in head dim run on one
    // dispatcher thread and assemble into its one pair of step buffers, at
    // equal compact row counts every step: each output still equals the
    // engine-only step on that stream's own rows.
    const SaloConfig config;
    const std::vector<Band> bands = {Band{-4, 5, 1, 0}};
    const std::vector<int> globals = {0};
    const int heads = 2, steps = 12;
    const HybridPattern pattern(steps, bands, globals);
    DecodeSession session(config);
    const SaloEngine ref(config);
    Rng rng(53u);
    struct Stream {
        int d;
        StreamId id;
        DecodeState state;
    };
    std::vector<Stream> streams;
    for (const int d : {8, 16})
        streams.push_back(Stream{d, session.open_stream(pattern, heads, d, 0.25f),
                                 DecodeState(heads, d, decode_window_span(bands), globals)});
    RunOptions one;
    one.thread_budget = 1;
    for (int t = 0; t < steps; ++t)
        for (Stream& s : streams) {
            StepRequest req;
            req.q_row = random_matrix(heads, s.d, rng);
            req.k_row = random_matrix(heads, s.d, rng);
            req.v_row = random_matrix(heads, s.d, rng);
            s.state.append(req.k_row, req.v_row);
            const auto [kc, vc] = s.state.assemble();
            const StepResult want = ref.run_step(
                *ref.compile_step(prefix_pattern(t + 1, bands, globals), s.d), req.q_row, kc,
                vc, 0.25f, one);
            const StepResult got = session.step(s.id, std::move(req)).get();
            ASSERT_EQ(got.output[0].cols(), s.d);
            for (int h = 0; h < heads; ++h)
                for (int x = 0; x < s.d; ++x)
                    ASSERT_EQ(got.output[h](0, x), want.output[h](0, x))
                        << "t=" << t << " d=" << s.d << " h=" << h << " x=" << x;
            expect_sim_stats_equal(got.stats, want.stats);
        }
    session.close();
}

TEST(DecodeSession, SharedPlanStoreDerivesEachPositionOnceTierWide) {
    const SaloConfig config;
    const std::vector<Band> bands = {Band{-5, 6, 1, 0}};
    const HybridPattern pattern(6, bands, {0});
    const int heads = 1, d = 8, steps = 6;

    DecodeSessionOptions options;
    options.num_shards = 2;
    options.shared_plan_store = true;
    DecodeSession session(config, options);

    Rng rng(21u);
    const Tensor3<float> rows = random_tensor3(heads, steps, d, rng);
    std::vector<StreamId> ids = {session.open_stream(pattern, heads, d, 0.5f),
                                 session.open_stream(pattern, heads, d, 0.5f)};
    for (int t = 0; t < steps; ++t)
        for (const StreamId id : ids) {
            StepRequest req;
            req.q_row = head_row(rows, t, heads, d);
            req.k_row = head_row(rows, t, heads, d);
            req.v_row = head_row(rows, t, heads, d);
            EXPECT_NO_THROW(session.step(id, std::move(req)).get());
        }
    session.close();

    // Both streams walked positions 0..5; with the shared store each
    // micro-plan was derived exactly once tier-wide no matter which shard
    // each stream landed on.
    const SessionStats st = session.stats();
    EXPECT_EQ(st.plan_cache.step_derives, static_cast<std::uint64_t>(steps));
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(2 * steps));
}

TEST(DecodeSession, SequentialStreamsOfOneShapeShareTheWarmUp) {
    // Four streams of one shape, each past T0 + 2P, one after the other:
    // the first derives the T0 + P warm-up plans, the rest run no scheduler
    // pass — on one engine, and tier-wide with a shared store.
    const SaloConfig config;
    const std::vector<Band> bands = {Band{-15, 16, 1, 0}};
    const std::vector<int> globals = {0, 3};
    const int heads = 1, d = 8;
    const StepPeriod sp = step_period(HybridPattern(1024, bands, globals), config.geometry);
    const int steps = sp.start + 2 * sp.period + 3;
    const HybridPattern pattern(steps, bands, globals);
    Rng rng(5u);
    const Tensor3<float> rows = random_tensor3(heads, steps, d, rng);

    for (const bool shared : {false, true}) {
        SCOPED_TRACE(shared ? "2 shards, shared store" : "1 engine");
        DecodeSessionOptions options;
        options.num_shards = shared ? 2 : 1;
        options.shared_plan_store = shared;
        DecodeSession session(config, options);
        for (int stream = 0; stream < 4; ++stream) {
            const StreamId id = session.open_stream(pattern, heads, d, 0.5f);
            for (int t = 0; t < steps; ++t) {
                StepRequest req;
                req.q_row = head_row(rows, t, heads, d);
                req.k_row = head_row(rows, t, heads, d);
                req.v_row = head_row(rows, t, heads, d);
                ASSERT_NO_THROW(session.step(id, std::move(req)).get());
            }
            session.close_stream(id);
        }
        session.close();
        const SessionStats st = session.stats();
        EXPECT_EQ(st.completed, static_cast<std::uint64_t>(4 * steps));
        EXPECT_LE(st.plan_cache.compiles + st.plan_cache.step_derives,
                  static_cast<std::uint64_t>(sp.start + sp.period));
        EXPECT_EQ(st.plan_cache.size, 0u);  // no decode plan in any LRU
    }
}

TEST(DecodeSession, CloseStreamWhileAStepIsParkedFailsThatStepAsEvicted) {
    // A step parked in admission holds on to its stream: close_stream()
    // returns at once (nothing of the stream is queued yet), and the
    // parked step, once space opens, is withdrawn as StreamEvicted instead
    // of reading the dropped stream.
    SaloConfig config;
    config.geometry.rows = 8;
    config.geometry.cols = 8;
    config.num_threads = 1;
    DecodeSessionOptions options;
    options.admission.max_queue = 1;  // block mode: over the limit, step() waits
    DecodeSession session(config, options);
    const HybridPattern pattern(64, {Band{-7, 8, 1, 0}}, {});
    auto req = [] {
        StepRequest r;
        r.q_row = r.k_row = r.v_row = Matrix<float>(1, 16, 0.5f);
        return r;
    };
    const StreamId a = session.open_stream(pattern, 1, 16, 0.25f);
    const StreamId b = session.open_stream(pattern, 1, 16, 0.25f);
    const StreamId c = session.open_stream(pattern, 1, 16, 0.25f);

    FaultInjector::Config fc;
    fc.stall_tiles = {0};
    fc.stall_for = std::chrono::milliseconds(300);
    const auto stall = std::make_shared<FaultInjector>(fc);
    StepRequest wedge = req();
    wedge.fault_injector = stall;
    auto fa = session.step(a, std::move(wedge));
    for (int i = 0; i < 2000 && stall->stalls_injected() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(stall->stalls_injected(), 0u);
    auto fb = session.step(b, req());  // fills the one queue slot
    auto parked = std::async(std::launch::async, [&] { return session.step(c, req()); });
    ASSERT_EQ(parked.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);

    session.close_stream(c);
    EXPECT_THROW(parked.get().get(), StreamEvicted);
    EXPECT_NO_THROW(fa.get());
    EXPECT_NO_THROW(fb.get());
    session.close();
    const SessionStats st = session.stats();
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.accounted(), st.submitted);
}

}  // namespace
}  // namespace salo
