// decode-stream: one Longformer-shaped causal decode stream through
// DecodeSession in a closed loop (submit a step, wait for it, submit the
// next). Each stream runs a fixed horizon and is then replaced, so every run
// covers whole streams and the per-position cost profile is the same in
// every run.
//
// Each step is checked against an engine-only ledger computed during
// set-up: an independent DecodeState fed the same rows, with compile_step
// and run_step called directly on a separate engine. A seeded sample of
// positions (the global row, the first ring wrap, the last position) is also
// checked against row t of a full-prefix encode. The traced run spans every
// call of that ledger.
#include <memory>
#include <optional>

#include "core/decode_session.hpp"
#include "harness.hpp"
#include "numeric/quantize.hpp"

namespace perfbench {
namespace {

using namespace salo;

// 12 heads x 64, causal band span 256, global token 0; 1024 steps per
// stream wrap the K/V ring three times.
constexpr int kHeads = 12;
constexpr int kHeadDim = 64;
constexpr int kSpan = 256;
constexpr int kHorizon = 1024;
constexpr double kStepLimitMs = 50.0;
const std::vector<int> kGlobals = {0};
const std::vector<Band> kBands = {Band{-(kSpan - 1), kSpan, 1, 0}};

float scale() { return 1.0f / std::sqrt(static_cast<float>(kHeadDim)); }

/// The causal pattern of a prefix of `length` positions.
HybridPattern prefix_pattern(int length) {
    std::vector<int> g;
    for (int x : kGlobals)
        if (x < length) g.push_back(x);
    return HybridPattern(length, kBands, std::move(g));
}

/// The stream's seeded rows: q/k/v[t] is kHeads x kHeadDim.
struct StreamInput {
    std::vector<Matrix<float>> q, k, v;
};

StreamInput make_input(std::uint64_t seed, int steps) {
    Rng rng(seed);
    StreamInput in;
    for (int t = 0; t < steps; ++t) {
        in.q.push_back(random_matrix(kHeads, kHeadDim, rng));
        in.k.push_back(random_matrix(kHeads, kHeadDim, rng));
        in.v.push_back(random_matrix(kHeads, kHeadDim, rng));
    }
    return in;
}

StepRequest step_request(const StreamInput& in, int t) {
    StepRequest req;
    req.q_row = in.q[static_cast<std::size_t>(t)];
    req.k_row = in.k[static_cast<std::size_t>(t)];
    req.v_row = in.v[static_cast<std::size_t>(t)];
    return req;
}

bool matches(const StepResult& got, const StepResult& want) {
    return got.position == want.position && bit_equal(got.output, want.output) &&
           stats_equal(got.stats, want.stats);
}

/// Engine-only ledger: ref[t] is step t of the stream.
struct Ledger {
    std::vector<StepResult> ref;
    std::vector<double> engine_step_us;  ///< append + assemble + plan + run_step
    std::vector<double> kv_bytes;
};

Ledger engine_ledger(const SaloEngine& engine, const StreamInput& in, Tracer* tr) {
    Ledger out;
    DecodeState state(kHeads, kHeadDim, decode_window_span(kBands), kGlobals);
    const auto span = [&](const char* name, int parent, std::int64_t unit) {
        return tr != nullptr ? tr->open(name, parent, unit) : -1;
    };
    const auto close = [&](int s) {
        if (tr != nullptr) tr->close(s);
    };
    for (int t = 0; t < kHorizon; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        const HybridPattern prefix = prefix_pattern(t + 1);
        const auto t0 = Clock::now();
        const int step = span("ledger.step", -1, t);

        int sp = span("streaming.append", step, t);
        state.append(in.k[ts], in.v[ts]);
        close(sp);

        sp = span("streaming.assemble", step, t);
        auto [kc, vc] = state.assemble();
        close(sp);

        // Every position is a new prefix shape: the lookup misses and compiles.
        sp = span("scheduler.compile", step, t);
        const CompiledPlanPtr micro = engine.compile_step(prefix, kHeadDim);
        close(sp);

        sp = span("engine.run_step", step, t);
        StepResult res = engine.run_step(*micro, in.q[ts], kc, vc, scale(), RunOptions{});
        close(sp);
        close(step);
        out.engine_step_us.push_back(ms_between(t0, Clock::now()) * 1e3);

        if (tr != nullptr) {
            // A second lookup measures the hit path.
            sp = tr->open("plan_cache.step_lookup", -1, t);
            (void)engine.compile_step(prefix, kHeadDim);
            tr->close(sp);
            // The requantize run_step performs inside the engine, replayed.
            sp = tr->open("numeric.quantize", -1, t);
            Matrix<float> q_scaled = in.q[ts];
            for (auto& x : q_scaled.data()) x *= scale();
            (void)quantize<InputFx>(q_scaled);
            for (int h = 0; h < kHeads; ++h) {
                (void)quantize<InputFx>(kc[h]);
                (void)quantize<InputFx>(vc[h]);
            }
            tr->close(sp);
        }
        out.kv_bytes.push_back(2.0 * kHeads * kc.rows() * kHeadDim *
                               static_cast<double>(sizeof(float)));
        out.ref.push_back(std::move(res));
    }
    return out;
}

/// Row t of the full-prefix encode must equal step t of the ledger.
bool check_full_prefix(const SaloEngine& engine, const StreamInput& in,
                       const std::vector<StepResult>& ref, int t) {
    Tensor3<float> q(kHeads, t + 1, kHeadDim), k = q, v = q;
    for (int h = 0; h < kHeads; ++h)
        for (int r = 0; r <= t; ++r)
            for (int x = 0; x < kHeadDim; ++x) {
                q[h](r, x) = in.q[static_cast<std::size_t>(r)](h, x);
                k[h](r, x) = in.k[static_cast<std::size_t>(r)](h, x);
                v[h](r, x) = in.v[static_cast<std::size_t>(r)](h, x);
            }
    const LayerResult full = engine.run(*engine.compile(prefix_pattern(t + 1), kHeadDim), q, k,
                                        v, scale(), RunOptions{});
    const StepResult& step = ref[static_cast<std::size_t>(t)];
    for (int h = 0; h < kHeads; ++h)
        for (int x = 0; x < kHeadDim; ++x)
            if (std::memcmp(&full.output[h](t, x), &step.output[h](0, x), sizeof(float)) != 0)
                return false;
    return true;
}

/// One set-up: session construction, the stream open, and a two-step
/// warm-up stream (the engine pool starts lazily).
struct Setup {
    std::unique_ptr<DecodeSession> session;
    std::optional<StreamId> first_stream;
};

StreamId open(DecodeSession& session) {
    return session.open_stream(prefix_pattern(kHorizon), kHeads, kHeadDim, scale());
}

Setup set_up(const StreamInput& warm) {
    Setup st;
    st.session = std::make_unique<DecodeSession>(SaloConfig{});
    st.first_stream = open(*st.session);
    const StreamId w = open(*st.session);
    for (int t = 0; t < 2; ++t) (void)st.session->step(w, step_request(warm, t)).get();
    st.session->close_stream(w);
    return st;
}

struct Phase {
    EndToEnd e;
    std::uint64_t steps = 0;
};

/// Whole streams for at least `seconds`.
void run_streams(Setup& st, const StreamInput& in, const Ledger& ledger, double seconds,
                 RunResult& r, Phase& ph, Tracer* tr) {
    DecodeSession& session = *st.session;
    const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
    do {
        const StreamId id = st.first_stream ? *st.first_stream : open(session);
        st.first_stream.reset();
        for (int t = 0; t < kHorizon; ++t) {
            ++r.attempted;
            const auto unit = static_cast<std::int64_t>(ph.steps++);
            const int step_span = tr != nullptr ? tr->open("step", -1, unit) : -1;
            const int submit_span =
                tr != nullptr ? tr->open("decode_session.step", step_span, unit) : -1;
            const auto sent = Clock::now();
            const double cpu0 = process_cpu_s();
            std::future<StepResult> f = session.step(id, step_request(in, t));
            if (tr != nullptr) tr->close(submit_span);
            try {
                const StepResult got = f.get();
                const double ms = ms_between(sent, Clock::now());
                const double cpu_s = process_cpu_s() - cpu0;
                if (tr != nullptr) tr->close(step_span);
                if (!matches(got, ledger.ref[static_cast<std::size_t>(t)])) {
                    ++r.failed;
                    ++r.mismatches;
                    continue;
                }
                ph.e.latency_ms.push_back(ms);
                ph.e.busy_s += ms / 1e3;
                ph.e.cpu_s += cpu_s;
                ++ph.e.positions;
                if (ms <= kStepLimitMs) ++ph.e.within_limit;
            } catch (const std::exception& ex) {
                ++r.failed;
                r.fact("last_error", ex.what());
            }
        }
        session.close_stream(id);
    } while (Clock::now() < t_end);
}

void check_conservation(const DecodeSession& session, std::uint64_t steps, RunResult& r) {
    const SessionStats st = session.stats();
    const std::uint64_t warm_steps = 2;  // the set-up warm-up stream
    if (st.submitted != steps + warm_steps || st.steps != st.submitted ||
        st.accounted() != st.submitted)
        r.problem("decode session conservation law violated");
    TenantStats sum;
    for (const auto& [name, t] : session.tenant_stats()) {
        if (t.accounted() != t.submitted) r.problem("tenant " + name + " conservation violated");
        sum.submitted += t.submitted;
        sum.completed += t.completed;
    }
    if (sum.submitted != st.submitted || sum.completed != st.completed)
        r.problem("tenant stats do not sum to the session stats");
}

}  // namespace

RunResult run_decode_stream(const Options& opt) {
    RunResult r;
    const StreamInput input = make_input(sub_seed(opt.seed, 0), kHorizon);
    double setup_s = 0.0;
    std::size_t setup_reps = 0;
    Setup st;
    {
        const StreamInput warm = make_input(sub_seed(opt.seed, 1), 2);
        st = timed_set_up([&] { return set_up(warm); }, setup_s, setup_reps);
    }
    r.fact("shape", "1 stream, 12x64, causal span 256, global token 0, horizon 1024");

    // References: the engine-only ledger (spanned when tracing), then the
    // full-prefix sample, on an engine that is gone before the window.
    Tracer ledger_tr;
    Ledger ledger;
    {
        const SaloEngine ref_engine{SaloConfig{}};
        ledger = engine_ledger(ref_engine, input, opt.trace ? &ledger_tr : nullptr);
        Rng pick(sub_seed(opt.seed, 7));
        for (int t : {0, kSpan - 1, kSpan, kHorizon - 1,
                      static_cast<int>(pick.uniform_index(static_cast<std::uint64_t>(kHorizon)))})
            if (!check_full_prefix(ref_engine, input, ledger.ref, t))
                r.problem("engine-only ledger differs from the full-prefix encode at position " +
                          std::to_string(t));
    }

    double cycles = 0.0;
    SimStats ledger_stats;
    for (const StepResult& step : ledger.ref) {
        cycles += static_cast<double>(step.stats.cycles);
        ledger_stats += step.stats;
    }

    // The untraced window (half of it in a traced run) gives the end-to-end
    // metrics; a traced run then repeats it traced.
    Phase plain;
    plain.e.setup_s = setup_s;
    plain.e.setup_reps = setup_reps;
    plain.e.cycles_per_token = cycles / kHorizon;
    plain.e.peak_reset = reset_peak_rss();
    const CpuWindow cpu;
    run_streams(st, input, ledger, opt.trace ? opt.seconds / 2 : opt.seconds, r, plain, nullptr);
    const double cpu_util = cpu.utilization();
    add_end_to_end(r, plain.e, Targets{kStepLimitMs, 99.0});
    if (!opt.trace) {
        st.session->drain();
        check_conservation(*st.session, plain.steps, r);
        return r;
    }

    Phase traced;
    Tracer tr;
    run_streams(st, input, ledger, opt.seconds / 2, r, traced, &tr);
    st.session->drain();
    check_conservation(*st.session, plain.steps + traced.steps, r);

    const std::vector<Span> spans = ledger_tr.spans();
    const std::vector<std::int64_t> self = self_times_ns(spans);
    if (!opt.out_dir.empty()) {
        write_trace(opt.out_dir + "/decode-stream-ledger.csv", spans);
        write_trace(opt.out_dir + "/decode-stream.csv", tr.spans());
    }
    const auto med_us = [&](const char* name) {
        const std::vector<double> v = self_us_of(spans, self, name);
        return std::make_pair(median(v), v.size());
    };
    for (const auto& [metric, span_name] :
         {std::pair{"streaming.append_us", "streaming.append"},
          std::pair{"streaming.assemble_us", "streaming.assemble"},
          std::pair{"plan_cache.step_lookup_us", "plan_cache.step_lookup"},
          std::pair{"numeric.quantize_us", "numeric.quantize"},
          std::pair{"engine.run_step_us", "engine.run_step"}}) {
        const auto [v, n] = med_us(span_name);
        r.add(metric, v, "us", n, "median per step of the engine-only ledger");
    }
    const auto [compile_us, compiles] = med_us("scheduler.compile");
    r.add("scheduler.compile_ms", compile_us / 1e3, "ms", compiles,
          "median prefix compile + micro-plan derive (one per position)");
    r.add("streaming.kv_bytes_per_step", mean(ledger.kv_bytes), "bytes", ledger.kv_bytes.size(),
          "compact K+V float bytes assembled per step, from tensor sizes");
    const double session_p50_us = median(plain.e.latency_ms) * 1e3;
    r.add("decode_session.overhead_us", session_p50_us - median(ledger.engine_step_us), "us",
          plain.steps, "session step p50 minus engine-only step p50");
    const SessionStats ss = st.session->stats();
    r.add("decode_session.batches", static_cast<double>(ss.batches), "count", 1);
    r.add("decode_session.mean_batch",
          ss.batches == 0 ? 0.0
                          : static_cast<double>(ss.completed) / static_cast<double>(ss.batches),
          "steps", ss.batches);
    r.add("plan_cache.hit_ratio", ss.plan_cache.hit_rate(), "ratio",
          ss.plan_cache.hits + ss.plan_cache.misses);
    r.add("plan_cache.step_derives", static_cast<double>(ss.plan_cache.step_derives), "count", 1);
    r.add("sim.tiles", static_cast<double>(ledger_stats.tiles) / kHorizon, "count", kHorizon,
          "mean per step");
    r.add("sim.mac_ops", static_cast<double>(ledger_stats.activity.mac_ops) / kHorizon, "count",
          kHorizon, "mean per step");
    r.add("sim.exp_ops", static_cast<double>(ledger_stats.activity.exp_ops) / kHorizon, "count",
          kHorizon, "mean per step");
    r.add("sim.pe_utilization", ledger_stats.activity.occupancy(), "ratio", kHorizon,
          "valid_slots / array_slots");
    r.add("process.cpu_util", cpu_util, "ratio", 1, "untraced phase");
    const double plain_p50 = median(plain.e.latency_ms);
    r.add("trace.overhead_pct",
          plain_p50 > 0.0 ? (median(traced.e.latency_ms) / plain_p50 - 1.0) * 100.0 : 0.0, "%",
          traced.steps, "traced vs untraced step p50");
    return r;
}

}  // namespace perfbench
