// bench_decode: streaming-decode throughput and correctness gates.
//
//   bench_decode [--quick] [--steps N] [--seed S] [--threads N] [--json <path>]
//                [--soak | --lone-step]
//
// Throughput mode (default): drives the DecodeSession at 1, 64 and 4096
// concurrent streams over a decode-compatible hybrid pattern (64-wide
// causal band + 2 global tokens) and reports tokens/s per level. The 4096
// streams share 64 seeded input classes, so correctness is affordable:
// one full per-prefix encode chain is computed per class, and EVERY step
// output of EVERY stream is byte-compared against row t of the full
// encode of the same prefix. The exit code enforces bit-identity at every
// level — the incremental micro-plan path must produce exactly the bits
// of re-running the whole prefix, at every concurrency.
//
// Soak mode (--soak): 64 streams with mixed step counts on a 2-shard tier
// whose shard 0 runs seeded fault injection. The exit code enforces the
// serving invariants under chaos: no lost futures (every submitted step
// resolves), only typed SaloErrors, bit-identity of every COMPLETED step,
// the stats conservation law with steps == submitted (globally and per
// tenant), and eviction bookkeeping (every failed stream counted). This
// is the `decode_soak` ctest, also run under TSan in CI.
//
// Lone-step mode (--lone-step): the single-stream costs docs/PERFORMANCE.md
// "Work-sized decode steps" records, on a Longformer-shaped stream (12 heads
// x 64, causal span 256, global token 0). First a span sweep of one
// engine-only run_step at 1 lane vs the whole pool (wall and process CPU per
// step), the measurement behind kStepFanOutWork. Then, at num_threads 1 and
// the hardware thread count, the steady-state DecodeSession step p50 beside
// the engine-only step p50 (append, plan lookup, assemble, run_step called
// directly); exit code 1 if the median per-position ratio of the two
// exceeds 1.5x.
//
// --threads sets SaloConfig::num_threads (default: hardware threads).
// --json writes the machine-readable snapshot recorded as
// BENCH_decode.json at the repo root (see docs/PERFORMANCE.md for the
// tokens/s methodology), with the host's ISA, thread count and CPU model.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/salo.hpp"
#include "host.hpp"
#include "sim/kernels.hpp"

namespace {

using namespace salo;
using salo::bench::cpu_model;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct DecodeShape {
    std::vector<Band> bands = {Band{-63, 64, 1, 0}};
    std::vector<int> globals = {0, 1};
    int heads = 2;
    int head_dim = 32;
    float scale = 0.176777f;  // ~ 1/sqrt(32)

    HybridPattern pattern(int steps) const {
        std::vector<int> g;
        for (int x : globals)
            if (x < steps) g.push_back(x);
        return HybridPattern(steps, bands, g);
    }
};

/// One input class: per-position Q/K/V rows for `steps` positions.
struct InputClass {
    Tensor3<float> q, k, v;  // [heads][steps][d]
};

InputClass make_class(const DecodeShape& shape, int steps, std::uint64_t seed) {
    Rng rng(seed);
    InputClass c;
    c.q = random_tensor3(shape.heads, steps, shape.head_dim, rng);
    c.k = random_tensor3(shape.heads, steps, shape.head_dim, rng);
    c.v = random_tensor3(shape.heads, steps, shape.head_dim, rng);
    return c;
}

Matrix<float> row_of(const Tensor3<float>& all, int t, int heads, int d) {
    Matrix<float> row(heads, d, 0.0f);
    for (int h = 0; h < heads; ++h)
        for (int x = 0; x < d; ++x) row(h, x) = all[h](t, x);
    return row;
}

/// Reference chain for one input class: expected[t] = row t of the full
/// whole-sequence encode of prefix length t+1 (the only correct reference;
/// a global row attends later keys, so rows of longer encodes differ).
std::vector<Matrix<float>> reference_chain(const SaloEngine& engine,
                                           const DecodeShape& shape,
                                           const InputClass& cls, int steps) {
    const int heads = shape.heads, d = shape.head_dim;
    std::vector<Matrix<float>> expected;
    expected.reserve(static_cast<std::size_t>(steps));
    for (int t = 0; t < steps; ++t) {
        Tensor3<float> q(heads, t + 1, d), k(heads, t + 1, d), v(heads, t + 1, d);
        for (int h = 0; h < heads; ++h)
            for (int r = 0; r <= t; ++r)
                for (int x = 0; x < d; ++x) {
                    q[h](r, x) = cls.q[h](r, x);
                    k[h](r, x) = cls.k[h](r, x);
                    v[h](r, x) = cls.v[h](r, x);
                }
        const LayerResult full =
            engine.run(*engine.compile(shape.pattern(t + 1), d), q, k, v, shape.scale);
        Matrix<float> row(heads, d, 0.0f);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) row(h, x) = full.output[h](t, x);
        expected.push_back(std::move(row));
    }
    return expected;
}

double process_cpu_us() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double median_of(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

bool rows_equal(const Matrix<float>& a, const Matrix<float>& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (int r = 0; r < a.rows(); ++r)
        for (int c = 0; c < a.cols(); ++c)
            if (a(r, c) != b(r, c)) return false;
    return true;
}

struct LevelResult {
    int streams = 0;
    std::uint64_t steps_total = 0;
    double wall_ms = 0.0;
    double tokens_per_s = 0.0;
    bool bit_identical = true;
    std::uint64_t batches = 0;
    std::size_t max_batch = 0;
    std::uint64_t step_derives = 0;
    double plan_cache_hit_rate = 0.0;
};

/// Drive `num_streams` concurrent streams for `steps` positions each,
/// submitting in lockstep waves (wave t = step t of every live stream), and
/// byte-compare every step output against the class reference chains.
LevelResult run_level(const SaloConfig& config, const DecodeShape& shape,
                      const std::vector<InputClass>& classes,
                      const std::vector<std::vector<Matrix<float>>>& expected,
                      int num_streams, int steps) {
    LevelResult out;
    out.streams = num_streams;

    DecodeSessionOptions options;
    options.num_shards = 1;
    DecodeSession session(config, options);
    const HybridPattern pattern = shape.pattern(steps);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<StreamId> ids;
    ids.reserve(static_cast<std::size_t>(num_streams));
    for (int i = 0; i < num_streams; ++i)
        ids.push_back(session.open_stream(pattern, shape.heads, shape.head_dim,
                                          shape.scale));

    std::vector<std::future<StepResult>> futures(
        static_cast<std::size_t>(num_streams));
    for (int t = 0; t < steps; ++t) {
        for (int i = 0; i < num_streams; ++i) {
            const InputClass& cls = classes[static_cast<std::size_t>(i) % classes.size()];
            StepRequest req;
            req.q_row = row_of(cls.q, t, shape.heads, shape.head_dim);
            req.k_row = row_of(cls.k, t, shape.heads, shape.head_dim);
            req.v_row = row_of(cls.v, t, shape.heads, shape.head_dim);
            futures[static_cast<std::size_t>(i)] =
                session.step(ids[static_cast<std::size_t>(i)], std::move(req));
        }
        for (int i = 0; i < num_streams; ++i) {
            const StepResult step = futures[static_cast<std::size_t>(i)].get();
            ++out.steps_total;
            const std::vector<Matrix<float>>& exp =
                expected[static_cast<std::size_t>(i) % expected.size()];
            Matrix<float> got(shape.heads, shape.head_dim, 0.0f);
            for (int h = 0; h < shape.heads; ++h)
                for (int x = 0; x < shape.head_dim; ++x)
                    got(h, x) = step.output[h](0, x);
            if (!rows_equal(got, exp[static_cast<std::size_t>(t)]))
                out.bit_identical = false;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    session.close();

    out.wall_ms = ms_between(t0, t1);
    out.tokens_per_s = out.wall_ms > 0.0
                           ? static_cast<double>(out.steps_total) * 1000.0 / out.wall_ms
                           : 0.0;
    const SessionStats st = session.stats();
    out.batches = st.batches;
    out.max_batch = st.max_batch;
    out.step_derives = st.plan_cache.step_derives;
    out.plan_cache_hit_rate = st.plan_cache.hit_rate();
    if (st.completed != out.steps_total || st.steps != st.submitted)
        out.bit_identical = false;  // fold accounting breakage into the gate
    return out;
}

struct SoakResult {
    std::uint64_t submitted = 0;
    std::uint64_t resolved = 0;
    std::uint64_t completed = 0;
    std::uint64_t evicted_streams = 0;
    std::uint64_t failed = 0;
    bool typed_errors_only = true;
    bool bit_identical = true;
    bool conserved = true;
    bool tenants_conserved = true;
};

/// 64 streams, mixed step counts, 2 shards with seeded chaos on shard 0.
SoakResult run_soak(const SaloConfig& config, const DecodeShape& shape,
                    const std::vector<InputClass>& classes,
                    const std::vector<std::vector<Matrix<float>>>& expected,
                    int max_steps, std::uint64_t seed) {
    SoakResult out;
    const int num_streams = 64;

    DecodeSessionOptions options;
    options.num_shards = 2;
    // Micro-plans have only a couple of tiles, so a per-tile-index seeded
    // rate either always fires or never does; use the deterministic
    // triggers instead: the first `max_faults` shard-0 head-runs fault
    // (evicting their streams), and early runs also stall briefly for
    // timing jitter (useful under TSan).
    FaultInjector::Config chaos;
    chaos.seed = seed;
    chaos.fault_tiles = {0};
    chaos.max_faults = 6;
    chaos.stall_tiles = {1};
    chaos.stall_for = std::chrono::microseconds(200);
    chaos.max_stalls = 32;
    options.shard_fault_injectors = {std::make_shared<FaultInjector>(chaos), nullptr};
    // Quarantine aggressively so the soak exercises shard refusal too.
    options.health.window = 16;
    options.health.min_samples = 4;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = std::chrono::milliseconds(20);
    DecodeSession session(config, options);

    const char* tenants[] = {"ant", "bee", "cricket", "dragonfly"};
    std::vector<StreamId> ids;
    std::vector<int> stream_steps;
    for (int i = 0; i < num_streams; ++i) {
        const int steps = 4 + (i * 7) % (max_steps - 3);
        stream_steps.push_back(steps);
        ids.push_back(session.open_stream(shape.pattern(steps), shape.heads,
                                          shape.head_dim, shape.scale,
                                          tenants[i % 4]));
    }

    std::vector<std::future<StepResult>> futures;
    std::vector<int> future_stream, future_step;
    for (int t = 0; t < max_steps; ++t) {
        futures.clear();
        future_stream.clear();
        future_step.clear();
        for (int i = 0; i < num_streams; ++i) {
            if (t >= stream_steps[static_cast<std::size_t>(i)]) continue;
            const InputClass& cls = classes[static_cast<std::size_t>(i) % classes.size()];
            StepRequest req;
            req.q_row = row_of(cls.q, t, shape.heads, shape.head_dim);
            req.k_row = row_of(cls.k, t, shape.heads, shape.head_dim);
            req.v_row = row_of(cls.v, t, shape.heads, shape.head_dim);
            futures.push_back(session.step(ids[static_cast<std::size_t>(i)],
                                           std::move(req)));
            future_stream.push_back(i);
            future_step.push_back(t);
            ++out.submitted;
        }
        for (std::size_t f = 0; f < futures.size(); ++f) {
            try {
                const StepResult step = futures[f].get();
                ++out.resolved;
                ++out.completed;
                const std::vector<Matrix<float>>& exp =
                    expected[static_cast<std::size_t>(future_stream[f]) %
                             expected.size()];
                Matrix<float> got(shape.heads, shape.head_dim, 0.0f);
                for (int h = 0; h < shape.heads; ++h)
                    for (int x = 0; x < shape.head_dim; ++x)
                        got(h, x) = step.output[h](0, x);
                if (!rows_equal(got,
                                exp[static_cast<std::size_t>(future_step[f])]))
                    out.bit_identical = false;
            } catch (const SaloError&) {
                ++out.resolved;  // typed failure: the contract under chaos
            } catch (...) {
                ++out.resolved;
                out.typed_errors_only = false;
            }
        }
    }
    session.close();

    const SessionStats st = session.stats();
    out.evicted_streams = st.evicted_streams;
    out.failed = st.failed;
    out.conserved = st.accounted() == st.submitted && st.steps == st.submitted &&
                    st.submitted == out.submitted;
    out.tenants_conserved = true;
    std::uint64_t tenant_submitted = 0;
    for (const auto& [name, ts] : session.tenant_stats()) {
        (void)name;
        if (ts.accounted() != ts.submitted || ts.steps != ts.submitted)
            out.tenants_conserved = false;
        tenant_submitted += ts.submitted;
    }
    if (tenant_submitted != st.submitted) out.tenants_conserved = false;
    return out;
}

// --- Lone-step mode ---------------------------------------------------------

constexpr int kLoneHeads = 12;
constexpr int kLoneHeadDim = 64;

std::vector<Band> lone_bands(int span) { return {Band{-(span - 1), span, 1, 0}}; }

HybridPattern lone_prefix(int span, int length) {
    return HybridPattern(length, lone_bands(span), {0});
}

/// Engine-only run_step at one span, 1 lane vs `pool` lanes, the two
/// alternating call by call so host noise hits both alike: wall p50 and
/// mean process CPU per call of each.
struct StepCost {
    double wall_us = 0.0;
    double cpu_us = 0.0;
};

std::pair<StepCost, StepCost> time_run_step(const SaloEngine& engine, int span, int pool,
                                            int reps) {
    Rng rng(static_cast<std::uint64_t>(span));
    DecodeState state(kLoneHeads, kLoneHeadDim, span, {0});
    const int t = span + 64;  // ring full, the global pinned
    for (int p = 0; p <= t; ++p)
        state.append(random_matrix(kLoneHeads, kLoneHeadDim, rng),
                     random_matrix(kLoneHeads, kLoneHeadDim, rng));
    const Matrix<float> q = random_matrix(kLoneHeads, kLoneHeadDim, rng);
    const CompiledPlanPtr micro = engine.compile_step(lone_prefix(span, t + 1), kLoneHeadDim);
    const auto [kq, vq] = state.assemble_quantized();
    std::vector<double> wall[2];
    double cpu[2] = {0.0, 0.0};
    for (int r = -1; r < reps; ++r) {  // r = -1 warms the pool and caches
        for (int side = 0; side < 2; ++side) {
            RunOptions options;
            options.thread_budget = side == 0 ? 1 : pool;
            const double cpu0 = process_cpu_us();
            const auto t0 = std::chrono::steady_clock::now();
            (void)engine.run_step(*micro, q, kq, vq, 0.125f, options);
            if (r < 0) continue;
            wall[side].push_back(ms_between(t0, std::chrono::steady_clock::now()) * 1e3);
            cpu[side] += process_cpu_us() - cpu0;
        }
    }
    return {StepCost{median_of(wall[0]), cpu[0] / reps},
            StepCost{median_of(wall[1]), cpu[1] / reps}};
}

/// Steady-state step p50 (positions >= T0 + P of later streams, after a
/// first stream of the same shape warmed the plans): engine-only (the work
/// DecodeSession::execute does, called directly) and through a one-shard
/// DecodeSession, the two alternating position by position; plus the
/// median of the per-position session / engine-only ratios, which cancels
/// host drift slower than a step.
struct LoneStep {
    double engine_us = 0.0;
    double session_us = 0.0;
    double ratio = 0.0;
};

LoneStep lone_step_p50(const SaloConfig& config, int horizon) {
    const int span = 256;
    const float scale = 0.125f;
    Rng rng(7);
    std::vector<Matrix<float>> q, k, v;
    for (int t = 0; t < horizon; ++t) {
        q.push_back(random_matrix(kLoneHeads, kLoneHeadDim, rng));
        k.push_back(random_matrix(kLoneHeads, kLoneHeadDim, rng));
        v.push_back(random_matrix(kLoneHeads, kLoneHeadDim, rng));
    }
    const StepPeriod sp = step_period(lone_prefix(span, horizon), config.geometry);
    const int steady = sp.start + sp.period;

    const SaloEngine engine(config);
    DecodeSession session(config);
    std::vector<double> engine_us, session_us, ratios;
    Tensor3<std::int8_t> kq, vq;
    for (int pass = 0; pass < 3; ++pass) {
        DecodeState state(kLoneHeads, kLoneHeadDim, span, {0});
        const StreamId id =
            session.open_stream(lone_prefix(span, horizon), kLoneHeads, kLoneHeadDim, scale);
        for (int t = 0; t < horizon; ++t) {
            const auto ts = static_cast<std::size_t>(t);
            auto t0 = std::chrono::steady_clock::now();
            state.append(k[ts], v[ts]);
            const CompiledPlanPtr micro =
                engine.compile_step(lone_prefix(span, t + 1), kLoneHeadDim);
            state.assemble_quantized(kq, vq);
            (void)engine.run_step(*micro, q[ts], kq, vq, scale);
            const double engine_step = ms_between(t0, std::chrono::steady_clock::now()) * 1e3;

            StepRequest req;
            req.q_row = q[ts];
            req.k_row = k[ts];
            req.v_row = v[ts];
            t0 = std::chrono::steady_clock::now();
            (void)session.step(id, std::move(req)).get();
            const double session_step = ms_between(t0, std::chrono::steady_clock::now()) * 1e3;
            if (pass > 0 && t >= steady) {
                engine_us.push_back(engine_step);
                session_us.push_back(session_step);
                ratios.push_back(session_step / engine_step);
            }
        }
        session.close_stream(id);
    }
    return LoneStep{median_of(engine_us), median_of(session_us), median_of(ratios)};
}

int run_lone_step(bool quick) {
    const int pool = default_num_threads();
    std::printf("lone decode steps: %d heads x %d, causal span + global 0\n\n", kLoneHeads,
                kLoneHeadDim);
    std::printf("engine-only run_step, 1 lane vs %d-lane pool (kStepFanOutWork = %lld):\n",
                pool, static_cast<long long>(kStepFanOutWork));
    std::printf("  %5s %9s %11s %10s %11s %10s %s\n", "span", "work", "1-lane wall",
                "1-lane cpu", "pool wall", "pool cpu", "auto");
    SaloConfig config;
    config.num_threads = pool;
    const SaloEngine engine(config);
    for (const int span : {256, 512, 1024, 2048, 4096}) {
        const int reps = quick ? 20 : std::max(50, 100000 / span);
        const auto [one, all] = time_run_step(engine, span, pool, reps);
        const std::int64_t work = std::int64_t{kLoneHeads} * (span + 1) * kLoneHeadDim;
        std::printf("  %5d %8.2fM %9.0f us %7.0f us %8.0f us %7.0f us %s\n", span,
                    static_cast<double>(work) / 1e6, one.wall_us, one.cpu_us, all.wall_us,
                    all.cpu_us, step_threads(0, pool, work) == 1 ? "inline" : "pool");
    }

    const int horizon = quick ? 320 : 1024;
    std::printf("\nsteady-state step p50, span 256 (positions >= T0 + P of a warm shape):\n");
    bool within = true;
    for (const int threads : {1, pool}) {
        SaloConfig c;
        c.num_threads = threads;
        const LoneStep r = lone_step_p50(c, horizon);
        within = within && r.ratio <= 1.5;
        std::printf("  num_threads %d: engine-only %.0f us, DecodeSession %.0f us, "
                    "median ratio %.2fx (target <= 1.5x)\n",
                    threads, r.engine_us, r.session_us, r.ratio);
    }
    return within ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool soak = false;
    bool lone_step = false;
    int threads = 0;
    int steps = 32;
    std::uint64_t seed = 42;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        else if (std::strcmp(argv[i], "--soak") == 0) soak = true;
        else if (std::strcmp(argv[i], "--lone-step") == 0) lone_step = true;
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc)
            steps = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: bench_decode [--quick] [--soak | --lone-step] "
                         "[--steps N] [--seed S] [--threads N] [--json path]\n");
            return 2;
        }
    }
    if (lone_step) return run_lone_step(quick);
    if (quick) steps = std::min(steps, 8);
    if (steps < 4) steps = 4;

    const DecodeShape shape;
    SaloConfig config;
    if (threads > 0) config.num_threads = threads;
    config.plan_cache_capacity = 4 * steps;  // room for every reference prefix plan

    std::printf("streaming decode: band span %d + %zu globals, heads %d, d %d, "
                "%d steps per stream\n",
                decode_window_span(shape.bands), shape.globals.size(), shape.heads,
                shape.head_dim, steps);
    std::printf("kernel ISA: %s, hardware threads: %d, num_threads: %d, CPU: %s\n\n",
                kernels::isa_name(), default_num_threads(), config.effective_threads(),
                cpu_model().c_str());

    // 64 seeded input classes shared by every level (and the soak), with
    // one full per-prefix reference encode chain per class.
    const int num_classes = 64;
    std::vector<InputClass> classes;
    for (int c = 0; c < num_classes; ++c)
        classes.push_back(make_class(shape, steps, seed * 1000 + static_cast<std::uint64_t>(c)));
    const SaloEngine ref(config);
    std::vector<std::vector<Matrix<float>>> expected;
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (const InputClass& cls : classes)
            expected.push_back(reference_chain(ref, shape, cls, steps));
        std::printf("reference: %d per-prefix encode chains (%d prefixes each) "
                    "in %.0f ms\n\n",
                    num_classes, steps,
                    ms_between(t0, std::chrono::steady_clock::now()));
    }

    if (soak) {
        const SoakResult r = run_soak(config, shape, classes, expected, steps, seed);
        std::printf("soak: 64 streams (mixed 4..%d steps), 2 shards, chaos on "
                    "shard 0 (seed %llu)\n",
                    steps, static_cast<unsigned long long>(seed));
        std::printf("  submitted %llu, resolved %llu, completed %llu, failed %llu, "
                    "evicted streams %llu\n",
                    static_cast<unsigned long long>(r.submitted),
                    static_cast<unsigned long long>(r.resolved),
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.failed),
                    static_cast<unsigned long long>(r.evicted_streams));
        const bool no_lost = r.resolved == r.submitted;
        const bool chaos_hit = r.evicted_streams >= 1 && r.failed >= 1;
        std::printf("  gates: lost=%s typed=%s bit-identical=%s conserved=%s "
                    "tenants=%s chaos-exercised=%s\n",
                    no_lost ? "none" : "LOST", r.typed_errors_only ? "ok" : "FAIL",
                    r.bit_identical ? "ok" : "FAIL", r.conserved ? "ok" : "FAIL",
                    r.tenants_conserved ? "ok" : "FAIL", chaos_hit ? "ok" : "FAIL");
        return no_lost && r.typed_errors_only && r.bit_identical && r.conserved &&
                       r.tenants_conserved && chaos_hit
                   ? 0
                   : 1;
    }

    const int levels[] = {1, 64, 4096};
    std::vector<LevelResult> results;
    bool all_identical = true;
    for (int streams : levels) {
        const LevelResult r = run_level(config, shape, classes, expected, streams, steps);
        std::printf("%5d streams: %7llu steps in %8.1f ms -> %9.0f tokens/s  "
                    "(batches %llu, max batch %zu, step derives %llu, "
                    "bit-identical %s)\n",
                    r.streams, static_cast<unsigned long long>(r.steps_total),
                    r.wall_ms, r.tokens_per_s,
                    static_cast<unsigned long long>(r.batches), r.max_batch,
                    static_cast<unsigned long long>(r.step_derives),
                    r.bit_identical ? "yes" : "NO");
        all_identical = all_identical && r.bit_identical;
        results.push_back(r);
    }

    if (!json_path.empty()) {
        char date[32] = "unknown";
        const std::time_t now = std::time(nullptr);
        std::strftime(date, sizeof date, "%Y-%m-%d", std::gmtime(&now));
        std::ofstream os(json_path);
        os << "{\n"
           << "  \"bench\": \"decode\",\n"
           << "  \"schema_version\": 1,\n"
           << "  \"date\": \"" << date << "\",\n"
           << "  \"seed\": " << seed << ",\n"
           << "  \"pattern\": \"band-span-" << decode_window_span(shape.bands)
           << "-plus-" << shape.globals.size() << "-globals\",\n"
           << "  \"heads\": " << shape.heads << ",\n"
           << "  \"head_dim\": " << shape.head_dim << ",\n"
           << "  \"steps_per_stream\": " << steps << ",\n"
           << "  \"input_classes\": " << num_classes << ",\n"
           << "  \"fidelity\": \"functional\",\n"
           << "  \"kernel_isa\": \"" << kernels::isa_name() << "\",\n"
           << "  \"hardware_threads\": " << default_num_threads() << ",\n"
           << "  \"num_threads\": " << config.effective_threads() << ",\n"
           << "  \"cpu_model\": \"" << cpu_model() << "\",\n"
           << "  \"levels\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const LevelResult& r = results[i];
            os << "    {\n"
               << "      \"streams\": " << r.streams << ",\n"
               << "      \"steps_total\": " << r.steps_total << ",\n"
               << "      \"wall_ms\": " << r.wall_ms << ",\n"
               << "      \"tokens_per_s\": " << r.tokens_per_s << ",\n"
               << "      \"batches\": " << r.batches << ",\n"
               << "      \"max_batch\": " << r.max_batch << ",\n"
               << "      \"step_derives\": " << r.step_derives << ",\n"
               << "      \"plan_cache_hit_rate\": " << r.plan_cache_hit_rate << ",\n"
               << "      \"bit_identical\": " << (r.bit_identical ? "true" : "false")
               << "\n    }";
            if (i + 1 < results.size()) os << ",";
            os << "\n";
        }
        os << "  ],\n"
           << "  \"bit_identical\": " << (all_identical ? "true" : "false") << "\n"
           << "}\n";
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return all_identical ? 0 : 1;
}
