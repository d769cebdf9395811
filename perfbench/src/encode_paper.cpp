// encode-paper: the paper's three Table-2 layers (Longformer-Base-4096,
// ViL stage 1, ViL stage 2) through SaloEngine::run in a closed loop with
// one caller, at functional fidelity and the library's default config.
//
// The traced run adds the stage ledger: a replay of the engine's
// sequential path through the public datapath pieces (quantize<InputFx>,
// the fast TileExecutor::run, WeightedSumModule::merge/finalize,
// TileCostAccountant::account), spanned per tile. The replay must equal the
// engine's 1-thread output and SimStats bit for bit, or the run fails: a
// ledger that diverges measures a different program.
#include <memory>

#include "harness.hpp"
#include "numeric/quantize.hpp"
#include "sim/tile_executor.hpp"
#include "sim/tile_costs.hpp"
#include "sim/wsm.hpp"
#include "workload/workloads.hpp"

namespace perfbench {
namespace {

using namespace salo;

constexpr double kPassLimitMs = 5000.0;
// A 30-second run makes ~75 passes: p75 is the highest percentile with at
// least 10 passes beyond it (p90 would need 100).
constexpr double kTailPercentile = 75.0;

struct Layer {
    AttentionWorkload shape;
    QkvSet input;
    CompiledPlanPtr plan;
    LayerResult reference;  ///< 1-thread engine run, computed during set-up
};

bool matches(const LayerResult& got, const LayerResult& want) {
    return bit_equal(got.output, want.output) && stats_equal(got.stats, want.stats);
}

LayerResult run_layer(const SaloEngine& engine, const Layer& l, int thread_budget) {
    RunOptions options;
    options.thread_budget = thread_budget;
    return engine.run(*l.plan, l.input.q, l.input.k, l.input.v, l.shape.scale(), options);
}

/// The engine's sequential head loop rebuilt from the public datapath
/// pieces, with a span around every stage call.
LayerResult replay_layer(const SaloConfig& config, const Layer& l, Tracer& tr, int parent,
                         std::int64_t unit) {
    const PwlExp exp_unit(config.exp_config);
    const Reciprocal recip_unit(config.recip_config);
    const SchedulePlan& plan = l.plan->plan();
    const int heads = l.input.q.count();
    const int n = l.input.q.rows();
    const int d = l.input.q.cols();
    const float scale = l.shape.scale();
    LayerResult out;
    out.output = Tensor3<float>(heads, n, d);
    PartArena arena;
    PartScratch scratch;
    for (int h = 0; h < heads; ++h) {
        const int head_span = tr.open("engine.head", parent, unit);
        int s = tr.open("numeric.quantize", head_span, unit);
        Matrix<float> q_scaled = l.input.q[h];
        for (auto& x : q_scaled.data()) x *= scale;
        const Matrix<std::int8_t> qq = quantize<InputFx>(q_scaled);
        const Matrix<std::int8_t> kq = quantize<InputFx>(l.input.k[h]);
        const Matrix<std::int8_t> vq = quantize<InputFx>(l.input.v[h]);
        tr.close(s);

        const TileExecutor exec(exp_unit, recip_unit, qq, kq, vq);
        WeightedSumModule wsm(n, d, recip_unit);
        TileCostAccountant accountant(config.tile_cost_params(d));
        SimStats stats;
        for (const TileTask& tile : plan.tiles) {
            s = tr.open("sim.execute", head_span, unit);
            arena.reset();
            exec.run(tile, arena, stats.activity, scratch);
            tr.close(s);

            s = tr.open("sim.merge", head_span, unit);
            for (std::size_t i = 0; i < arena.used(); ++i) wsm.merge(arena.at(i));
            tr.close(s);

            s = tr.open("sim.account", head_span, unit);
            const TileCostAccountant::Step step = accountant.account(tile);
            stats.cycles += step.cycles;
            ++stats.tiles;
            for (int st = 0; st < 5; ++st)
                stats.stage_totals.stage[st] += step.cost.breakdown.stage[st];
            stats.activity.pe_cycles += static_cast<std::int64_t>(tile.rows()) * tile.cols() *
                                        step.cost.breakdown.total();
            tr.close(s);
        }
        s = tr.open("sim.merge", head_span, unit);
        out.output[h] = wsm.finalize();
        tr.close(s);
        out.stats += stats;
        tr.close(head_span);
    }
    return out;
}

/// One set-up: engine construction and the three known-shape compiles.
struct Setup {
    std::unique_ptr<SaloEngine> engine;
    std::vector<CompiledPlanPtr> plans;
};

Setup set_up(const std::vector<AttentionWorkload>& shapes) {
    Setup st;
    st.engine = std::make_unique<SaloEngine>(SaloConfig{});
    for (const AttentionWorkload& w : shapes)
        st.plans.push_back(st.engine->compile(w.pattern, w.head_dim));
    return st;
}

std::uint64_t positions_per_pass(const std::vector<Layer>& layers) {
    std::uint64_t n = 0;
    for (const Layer& l : layers) n += static_cast<std::uint64_t>(l.shape.n());
    return n;
}

/// Closed loop for `seconds`: whole passes, each checked against the
/// references. `tr` (optional) gets a span per pass and per engine call.
void run_passes(const SaloEngine& engine, const std::vector<Layer>& layers, double seconds,
                RunResult& r, EndToEnd& e, Tracer* tr) {
    const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
    std::vector<LayerResult> got(layers.size());
    do {
        const std::int64_t unit = static_cast<std::int64_t>(r.attempted);
        const int pass_span = tr != nullptr ? tr->open("pass", -1, unit) : -1;
        const auto t0 = Clock::now();
        const double cpu0 = process_cpu_s();
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const int s = tr != nullptr ? tr->open("engine.run", pass_span, unit) : -1;
            got[i] = run_layer(engine, layers[i], 0);
            if (tr != nullptr) tr->close(s);
        }
        const double cpu_s = process_cpu_s() - cpu0;
        const double ms = ms_between(t0, Clock::now());
        if (tr != nullptr) tr->close(pass_span);
        ++r.attempted;
        bool ok = true;
        for (std::size_t i = 0; i < layers.size(); ++i)
            ok = ok && matches(got[i], layers[i].reference);
        if (!ok) {
            ++r.failed;
            ++r.mismatches;
            continue;
        }
        e.latency_ms.push_back(ms);
        e.busy_s += ms / 1e3;
        e.cpu_s += cpu_s;
        e.positions += positions_per_pass(layers);
        if (ms <= kPassLimitMs) ++e.within_limit;
    } while (Clock::now() < t_end);
}

double pass_cycles(const std::vector<Layer>& layers) {
    double c = 0.0;
    for (const Layer& l : layers) c += static_cast<double>(l.reference.stats.cycles);
    return c;
}

}  // namespace

RunResult run_encode_paper(const Options& opt) {
    RunResult r;
    const std::vector<AttentionWorkload> shapes = paper_workloads();
    double setup_s = 0.0;
    std::size_t setup_reps = 0;
    const Setup st = timed_set_up([&] { return set_up(shapes); }, setup_s, setup_reps);
    const SaloEngine& engine = *st.engine;
    std::vector<Layer> layers;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        layers.push_back(
            Layer{shapes[i], make_qkv(shapes[i], sub_seed(opt.seed, i)), st.plans[i], {}});
        layers.back().reference = run_layer(engine, layers.back(), 1);
    }
    r.fact("layers", "Longformer-Base-4096 (12x64), ViL-stage1 (3x64), ViL-stage2 (6x64)");
    r.fact("threads", std::to_string(engine.config().effective_threads()));

    // The untraced window (half of it in a traced run) gives the end-to-end
    // metrics; a traced run then repeats it traced, and the p50 difference
    // is the tracing cost.
    EndToEnd plain;
    plain.setup_s = setup_s;
    plain.setup_reps = setup_reps;
    plain.cycles_per_token = pass_cycles(layers) / static_cast<double>(positions_per_pass(layers));
    plain.peak_reset = reset_peak_rss();
    const CpuWindow cpu;
    run_passes(engine, layers, opt.trace ? opt.seconds / 2 : opt.seconds, r, plain, nullptr);
    const double cpu_util = cpu.utilization();
    add_end_to_end(r, plain, Targets{kPassLimitMs, kTailPercentile});
    if (!opt.trace) return r;

    EndToEnd traced;
    Tracer tr;
    run_passes(engine, layers, opt.seconds / 2, r, traced, &tr);
    const double run_nt_ms = median(plain.latency_ms);

    // 1-thread passes, then the stage replay, both untraced by the engine.
    std::vector<double> run_1t;
    std::vector<double> stage_ms[4];
    const char* const stages[4] = {"numeric.quantize", "sim.execute", "sim.merge",
                                   "sim.account"};
    constexpr int kLedgerPasses = 3;
    for (int rep = 0; rep < kLedgerPasses; ++rep) {
        const auto t0 = Clock::now();
        for (const Layer& l : layers) (void)run_layer(engine, l, 1);
        run_1t.push_back(ms_between(t0, Clock::now()));

        Tracer ledger;
        const std::int64_t unit = rep;
        const int pass_span = ledger.open("replay.pass", -1, unit);
        for (const Layer& l : layers) {
            const LayerResult replayed = replay_layer(engine.config(), l, ledger,
                                                      pass_span, unit);
            if (!matches(replayed, l.reference))
                r.problem("encode replay diverged from the engine on " + l.shape.name);
        }
        ledger.close(pass_span);
        const std::vector<Span> spans = ledger.spans();
        const std::vector<std::int64_t> self = self_times_ns(spans);
        for (int s = 0; s < 4; ++s) stage_ms[s].push_back(total_self_ms(spans, self, stages[s]));
        if (rep == 0 && !opt.out_dir.empty())
            write_trace(opt.out_dir + "/encode-paper-replay.csv", spans);
    }
    if (!opt.out_dir.empty()) write_trace(opt.out_dir + "/encode-paper.csv", tr.spans());

    double stage_sum = 0.0;
    for (int s = 0; s < 4; ++s) {
        const double ms = median(stage_ms[s]);
        stage_sum += ms;
        r.add(std::string(stages[s]) + "_ms", ms, "ms", stage_ms[s].size(),
              "self time per pass of the sequential replay");
    }
    const double run_1t_ms = median(run_1t);
    r.add("engine.run_1t_ms", run_1t_ms, "ms", run_1t.size());
    r.add("engine.run_nt_ms", run_nt_ms, "ms", plain.latency_ms.size());
    r.add("engine.parallel_speedup", run_nt_ms > 0.0 ? run_1t_ms / run_nt_ms : 0.0, "x",
          run_1t.size(), "run_1t_ms / run_nt_ms");
    r.add("engine.overhead_ms", run_1t_ms - stage_sum, "ms", run_1t.size(),
          "run_1t_ms minus the four stage self times");

    // Scheduler cost of each known shape, outside any cache.
    std::vector<double> compile_ms;
    for (const Layer& l : layers) {
        std::vector<double> reps;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = Clock::now();
            (void)compile_shared(l.shape.pattern, l.shape.head_dim, engine.config());
            reps.push_back(ms_between(t0, Clock::now()));
        }
        compile_ms.push_back(median(reps));
        r.fact("compile_ms." + l.shape.name, std::to_string(compile_ms.back()));
    }
    r.add("scheduler.compile_ms", mean(compile_ms), "ms", compile_ms.size(),
          "mean over the three shapes of the median of 3 compiles");

    SimStats pass;
    for (const Layer& l : layers) pass += l.reference.stats;
    r.add("sim.tiles", static_cast<double>(pass.tiles), "count", 1, "per pass");
    r.add("sim.mac_ops", static_cast<double>(pass.activity.mac_ops), "count", 1, "per pass");
    r.add("sim.exp_ops", static_cast<double>(pass.activity.exp_ops), "count", 1, "per pass");
    r.add("sim.pe_utilization", pass.activity.occupancy(), "ratio", 1,
          "valid_slots / array_slots");
    r.add("process.cpu_util", cpu_util, "ratio", 1, "untraced passes");
    const double traced_p50 = median(traced.latency_ms);
    r.add("trace.overhead_pct", run_nt_ms > 0.0 ? (traced_p50 / run_nt_ms - 1.0) * 100.0 : 0.0,
          "%", traced.latency_ms.size(), "traced vs untraced pass p50");
    return r;
}

}  // namespace perfbench
