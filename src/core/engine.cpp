#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "attention/golden.hpp"
#include "numeric/quantize.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/kernels.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"

namespace salo {

namespace {

/// Sequential cycle accounting of the tile loop, a thin adapter over the
/// shared TileCostAccountant (sim/tile_costs.hpp — the same contract the
/// analytic model and the co-simulation kernel replay).
/// Tiles are accounted strictly in schedule order: the double-buffered load
/// overlap and the inter-tile stage-3 pipelining both depend on the
/// previous tile.
class TileAccountant {
public:
    TileAccountant(const SaloConfig& config, int head_dim)
        : accountant_(config.tile_cost_params(head_dim)) {}

    /// Account one tile; returns its closed-form stage breakdown for the
    /// caller's activity bookkeeping.
    const CycleBreakdown& account(const TileTask& tile, SimStats& stats) {
        const TileCostAccountant::Step step = accountant_.account(tile);
        stats.cycles += step.cycles;
        ++stats.tiles;
        for (int s = 0; s < 5; ++s)
            stats.stage_totals.stage[s] += step.cost.breakdown.stage[s];
        last_breakdown_ = step.cost.breakdown;
        return last_breakdown_;
    }

private:
    TileCostAccountant accountant_;
    CycleBreakdown last_breakdown_;
};

/// Buffers of the tile loop (run_tiles), reused by every layer head and
/// decode-step head that runs on the same thread (a dispatcher, a pool
/// worker, a caller): the arena holds one tile's parts and stays in cache,
/// and a steady-state step allocates only its output. A thread runs one
/// head at a time, so the buffers are never shared.
struct LoopScratch {
    Matrix<std::int8_t> qq;  ///< decode step: the scaled, quantized query row (1 x d)
    PartArena arena;
    PartScratch part;
    std::vector<TilePart> parts;  ///< reference and cycle-accurate paths
    std::optional<WeightedSumModule> wsm;  ///< decode step
};

LoopScratch& loop_scratch() {
    thread_local LoopScratch scratch;
    return scratch;
}

}  // namespace

// Crossover of the automatic decode-step budget, from `bench_decode
// --lone-step`: engine-only int8 run_step, 12 heads x 64, causal span +
// global 0, 1 lane -> the 4-lane pool, median of 3 runs on a 4-thread
// AVX-512 host (docs/PERFORMANCE.md "Work-sized decode steps"):
//   span  256 (work 0.20M): wall  113 ->  54 us, CPU  107 ->  152 us (+42 %)
//   span  512 (work 0.39M): wall  203 ->  97 us, CPU  210 ->  272 us (+30 %)
//   span 1024 (work 0.79M): wall  286 -> 152 us, CPU  300 ->  439 us (+46 %)
//   span 2048 (work 1.57M): wall  724 -> 275 us, CPU  732 ->  849 us (+16 %)
//   span 4096 (work 3.15M): wall 1564 -> 621 us, CPU 1523 -> 1772 us (+16 %)
// The pool about halves the wall time at every span, but below ~1M work
// each step pays 30-46 % more CPU for it; above, ~16 %.
const std::int64_t kStepFanOutWork = std::int64_t{1} << 20;

int step_threads(int thread_budget, int configured_threads, std::int64_t work) {
    if (thread_budget > 0) return thread_budget;
    return work > kStepFanOutWork ? configured_threads : 1;
}

SaloEngine::SaloEngine() : SaloEngine(SaloConfig{}) {}

SaloEngine::SaloEngine(const SaloConfig& config)
    : config_(config), exp_unit_(config.exp_config), recip_unit_(config.recip_config),
      plan_cache_(static_cast<std::size_t>(std::max(1, config.plan_cache_capacity))) {
    config_.validate();
    if (config_.shared_plan_store)
        plan_cache_.attach_shared_store(config_.shared_plan_store);
}

ThreadPool& SaloEngine::pool() const {
    std::call_once(pool_once_, [this] {
        pool_ = std::make_unique<ThreadPool>(config_.effective_threads());
    });
    return *pool_;
}

CompiledPlanPtr SaloEngine::compile(const HybridPattern& pattern, int head_dim) const {
    return plan_cache_.get_or_compile(pattern, head_dim, config_);
}

PlanCacheStats SaloEngine::plan_cache_stats() const { return plan_cache_.stats(); }

SchedulePlan SaloEngine::plan(const HybridPattern& pattern, int head_dim) const {
    return schedule(pattern, config_.geometry, head_dim, config_.schedule_options);
}

SaloEngine::RunControl SaloEngine::run_control(const RunOptions& options) const {
    RunControl ctl;
    ctl.cancel = options.cancel.cancellable() ? &options.cancel : nullptr;
    ctl.has_deadline = options.deadline.has_value();
    if (options.deadline) ctl.deadline = *options.deadline;
    ctl.fault = options.fault_injector != nullptr ? options.fault_injector
                                                  : config_.fault_injector.get();
    return ctl;
}

void SaloEngine::check_compatible(const CompiledPlan& plan) const {
    SALO_EXPECTS(plan.geometry() == config_.geometry);
    SALO_EXPECTS(plan.options() == config_.schedule_options);
}

Matrix<float> SaloEngine::golden(const HybridPattern& pattern, const Matrix<float>& q,
                                 const Matrix<float>& k, const Matrix<float>& v,
                                 float scale) {
    return masked_attention(q, k, v, scale, pattern.attend_fn());
}

HeadResult SaloEngine::run_head_impl(const SchedulePlan& plan,
                                     const HybridPattern& pattern,
                                     const Matrix<float>& q, const Matrix<float>& k,
                                     const Matrix<float>& v, float scale,
                                     Fidelity fidelity, const RunControl* ctl) const {
    const int n = q.rows();
    const int d = q.cols();
    SALO_EXPECTS(n == pattern.n());
    SALO_EXPECTS(k.rows() == n && v.rows() == n && k.cols() == d && v.cols() == d);
    SALO_EXPECTS(plan.n == n && plan.head_dim == d);

    HeadResult result;
    if (fidelity == Fidelity::kGolden) {
        // No tile loop here: the head boundary (-1) is the only checkpoint.
        if (ctl != nullptr) ctl->check(-1);
        result.output = golden(pattern, q, k, v, scale);
        return result;
    }

    // Quantize at the accelerator boundary; the 1/sqrt(d) scaling is folded
    // into Q (driver-side preprocessing, see DESIGN.md).
    const Matrix<std::int8_t> qq = quantize_scaled(q, scale);
    const Matrix<std::int8_t> kq = quantize<InputFx>(k);
    const Matrix<std::int8_t> vq = quantize<InputFx>(v);
    WeightedSumModule wsm(n, d, recip_unit_);
    run_tiles(plan, fidelity, qq, kq, vq, ctl, wsm, result.stats);
    result.output = wsm.finalize();
    return result;
}

void SaloEngine::run_tiles(const SchedulePlan& plan, Fidelity fidelity,
                           const Matrix<std::int8_t>& qq, const Matrix<std::int8_t>& kq,
                           const Matrix<std::int8_t>& vq, const RunControl* ctl,
                           WeightedSumModule& wsm, SimStats& stats) const {
    TileAccountant accountant(config_, qq.cols());
    LoopScratch& scratch = loop_scratch();
    std::vector<TilePart>& parts = scratch.parts;

    // `execute` runs one tile and merges its parts. The functional datapath
    // adds the tile's closed-form PE-cycles; the cycle-accurate array counts
    // its own.
    const auto each_tile = [&](bool add_pe_cycles, auto&& execute) {
        for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
            if (ctl != nullptr) ctl->check(static_cast<int>(t));
            const TileTask& tile = plan.tiles[t];
            execute(tile);
            const CycleBreakdown& b = accountant.account(tile, stats);
            if (add_pe_cycles)
                stats.activity.pe_cycles +=
                    static_cast<std::int64_t>(tile.rows()) * tile.cols() * b.total();
        }
    };

    if (fidelity == Fidelity::kFunctional) {
        const TileExecutor exec(exp_unit_, recip_unit_, qq, kq, vq);
        if (config_.reference_datapath) {
            each_tile(true, [&](const TileTask& tile) {
                parts.clear();
                exec.run(tile, parts, stats.activity);
                for (const TilePart& p : parts) wsm.merge(p);
            });
        } else {
            PartArena& arena = scratch.arena;
            each_tile(true, [&](const TileTask& tile) {
                arena.reset();
                exec.run(tile, arena, stats.activity, scratch.part);
                for (std::size_t i = 0; i < arena.used(); ++i) wsm.merge(arena.at(i));
            });
        }
    } else {
        const CycleAccurateArray array(config_.geometry, config_.cycle_config(), exp_unit_,
                                       recip_unit_, qq, kq, vq);
        each_tile(false, [&](const TileTask& tile) {
            parts.clear();
            array.run(tile, parts, stats.activity);
            for (const TilePart& p : parts) wsm.merge(p);
        });
    }
}

// ---------------------------------------------------------------------------
// Incremental decode: one query row against the compact K/V layout.
// ---------------------------------------------------------------------------

SimStats SaloEngine::golden_step_head(const CompiledPlan& micro, const Matrix<float>& q_row,
                                      int head, const Matrix<float>& k,
                                      const Matrix<float>& v, float scale,
                                      const RunControl* ctl, Matrix<float>& out) const {
    const StepGeometry& sg = micro.step();
    const int d = micro.head_dim();
    if (ctl != nullptr) ctl->check(-1);
    // masked_attention's row loop for row t, with absolute key positions
    // mapped into the compact layout. The compact rows are copies of the
    // absolute rows and the iteration stays ascending-j, so every float op
    // matches golden() over the full prefix.
    const HybridPattern& pattern = micro.pattern();
    const std::vector<int>& globals = pattern.global_tokens();
    const int t = sg.position;
    const auto compact_of = [&](int j) {
        if (j >= sg.window_lo) return sg.num_globals + (j - sg.window_lo);
        const auto pin = std::lower_bound(globals.begin(), globals.end(), j);
        SALO_ASSERT(pin != globals.end() && *pin == j);
        return static_cast<int>(pin - globals.begin());
    };
    std::vector<int> cols;
    std::vector<double> scores;
    for (int j = 0; j <= t; ++j)
        if (pattern.attends(t, j)) cols.push_back(j);
    for (int x = 0; x < d; ++x) out(0, x) = 0.0f;
    if (!cols.empty()) {
        double mx = -std::numeric_limits<double>::infinity();
        for (int j : cols) {
            const int cj = compact_of(j);
            double dot = 0.0;
            for (int x = 0; x < d; ++x)
                dot += static_cast<double>(q_row(head, x)) * static_cast<double>(k(cj, x));
            dot *= scale;
            scores.push_back(dot);
            mx = std::max(mx, dot);
        }
        double sum = 0.0;
        for (double& sc : scores) {
            sc = std::exp(sc - mx);
            sum += sc;
        }
        SALO_ASSERT(sum > 0.0);
        for (std::size_t idx = 0; idx < cols.size(); ++idx) {
            const double w = scores[idx] / sum;
            const int cj = compact_of(cols[idx]);
            for (int x = 0; x < d; ++x)
                out(0, x) += static_cast<float>(w * static_cast<double>(v(cj, x)));
        }
    }
    return SimStats{};
}

SimStats SaloEngine::run_step_head(const CompiledPlan& micro, const Matrix<float>& q_row,
                                   int head, const Matrix<std::int8_t>& kq,
                                   const Matrix<std::int8_t>& vq, float scale,
                                   Fidelity fidelity, const RunControl* ctl,
                                   Matrix<float>& out) const {
    const int d = micro.head_dim();
    SimStats stats;
    LoopScratch& scratch = loop_scratch();

    // Quantization is elementwise, so the single scaled query row and the
    // compact K/V rows (quantized at append) carry exactly the bits the
    // full-prefix run produces for the same rows.
    if (scratch.qq.cols() != d) scratch.qq = Matrix<std::int8_t>(1, d, 0);
    kernels::quantize_input(q_row.row(head).data(), static_cast<std::size_t>(d), scale,
                            scratch.qq.data().data());
    if (scratch.wsm)
        scratch.wsm->reset(1, d, recip_unit_);
    else
        scratch.wsm.emplace(1, d, recip_unit_);
    run_tiles(micro.plan(), fidelity, scratch.qq, kq, vq, ctl, *scratch.wsm, stats);
    scratch.wsm->finalize_into(out);
    return stats;
}

CompiledPlanPtr SaloEngine::compile_step(const HybridPattern& pattern,
                                         int head_dim) const {
    return plan_cache_.get_or_derive_step(pattern, head_dim, config_);
}

template <typename T, typename HeadFn>
StepResult SaloEngine::run_step_heads(const CompiledPlan& micro, const Matrix<float>& q_row,
                                      const Tensor3<T>& k, const Tensor3<T>& v,
                                      const RunOptions& options, bool work_sized,
                                      HeadFn&& head_fn) const {
    check_compatible(micro);
    SALO_EXPECTS(micro.is_step());
    const StepGeometry& sg = micro.step();
    const int heads = q_row.rows();
    const int d = micro.head_dim();
    SALO_EXPECTS(heads >= 1);
    SALO_EXPECTS(q_row.cols() == d);
    SALO_EXPECTS(k.count() == heads && v.count() == heads);
    SALO_EXPECTS(k.rows() == sg.compact_rows && v.rows() == sg.compact_rows);
    SALO_EXPECTS(k.cols() == d && v.cols() == d);

    const RunControl ctl_storage = run_control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;

    StepResult result;
    result.position = sg.position;
    result.output = Tensor3<float>(heads, 1, d);

    int threads =
        options.thread_budget <= 0 ? config_.effective_threads() : options.thread_budget;
    if (work_sized)
        threads = step_threads(options.thread_budget, config_.effective_threads(),
                               std::int64_t{heads} * sg.compact_rows * d);
    if (threads > 1 && heads > 1) {
        // Heads are independent; a step's per-head tile loop is tiny, so a
        // head is the only sensible work quantum.
        std::vector<SimStats> head_stats(static_cast<std::size_t>(heads));
        pool().parallel_for(heads, [&](int h, int) {
            head_stats[static_cast<std::size_t>(h)] = head_fn(h, ctl, result.output[h]);
        });
        for (const SimStats& s : head_stats) result.stats += s;
    } else {
        for (int h = 0; h < heads; ++h) result.stats += head_fn(h, ctl, result.output[h]);
    }
    return result;
}

StepResult SaloEngine::run_step(const CompiledPlan& micro, const Matrix<float>& q_row,
                                const Tensor3<std::int8_t>& kq, const Tensor3<std::int8_t>& vq,
                                float scale, const RunOptions& options) const {
    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    SALO_EXPECTS(fidelity != Fidelity::kGolden);  // the float rows are gone
    return run_step_heads(
        micro, q_row, kq, vq, options, /*work_sized=*/true,
        [&](int h, const RunControl* ctl, Matrix<float>& out) {
            return run_step_head(micro, q_row, h, kq[h], vq[h], scale, fidelity, ctl, out);
        });
}

StepResult SaloEngine::run_step(const CompiledPlan& micro, const Matrix<float>& q_row,
                                const Tensor3<float>& k, const Tensor3<float>& v,
                                float scale, const RunOptions& options) const {
    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    return run_step_heads(
        micro, q_row, k, v, options, /*work_sized=*/false,
        [&](int h, const RunControl* ctl, Matrix<float>& out) {
            if (fidelity == Fidelity::kGolden)
                return golden_step_head(micro, q_row, h, k[h], v[h], scale, ctl, out);
            // Quantize, then the same integer core the int8 overload runs.
            return run_step_head(micro, q_row, h, quantize<InputFx>(k[h]),
                                 quantize<InputFx>(v[h]), scale, fidelity, ctl, out);
        });
}

// ---------------------------------------------------------------------------
// Compiled-plan entry points.
// ---------------------------------------------------------------------------

HeadResult SaloEngine::run_head(const CompiledPlan& plan, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v,
                                float scale) const {
    check_compatible(plan);
    return run_head_impl(plan.plan(), plan.pattern(), q, k, v, scale, config_.fidelity);
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v,
                            float scale) const {
    return run(plan, q, k, v, scale, RunOptions{});
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                            const RunOptions& options) const {
    check_compatible(plan);
    SALO_EXPECTS(q.count() == k.count() && k.count() == v.count());
    SALO_EXPECTS(q.count() >= 1);
    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    const SchedulePlan& p = plan.plan();
    const HybridPattern& pattern = plan.pattern();
    LayerResult result;
    result.output = Tensor3<float>(q.count(), q.rows(), q.cols());
    result.schedule = p.stats;

    // Resolve the robustness hooks once; a null control keeps the tile
    // loops free of clock reads and atomic loads (the common case).
    const RunControl ctl_storage = run_control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;

    const int heads = q.count();
    const int threads =
        options.thread_budget <= 0 ? config_.effective_threads() : options.thread_budget;
    std::vector<HeadResult> head_results(static_cast<std::size_t>(heads));
    const auto run_one = [&](int h) {
        head_results[static_cast<std::size_t>(h)] =
            run_head_impl(p, pattern, q[h], k[h], v[h], scale, fidelity, ctl);
    };

    if (threads > 1 && heads > 1) {
        // Heads share no state, so a head is the work unit: each lane claims
        // whole heads and runs the tile loop (quantize, execute, merge,
        // account) on its own cache-resident buffers. Results are identical
        // to the plain loop (docs/PERFORMANCE.md "Threading model").
        pool().parallel_for(heads, [&](int h, int) { run_one(h); });
    } else {
        // One thread, or one head: a head's tiles run in schedule order on
        // the calling thread.
        for (int h = 0; h < heads; ++h) run_one(h);
    }

    for (int h = 0; h < heads; ++h) {
        result.output[h] = std::move(head_results[static_cast<std::size_t>(h)].output);
        result.stats += head_results[static_cast<std::size_t>(h)].stats;
    }
    return result;
}

// ---------------------------------------------------------------------------
// Legacy one-shot API: thin shims over compile + run. The engine's
// PlanCache makes repeated calls with the same pattern/geometry free of
// scheduler work.
// ---------------------------------------------------------------------------

HeadResult SaloEngine::run_head(const HybridPattern& pattern, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v,
                                float scale) const {
    return run_head(*compile(pattern, q.cols()), q, k, v, scale);
}

LayerResult SaloEngine::run(const HybridPattern& pattern, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v,
                            float scale) const {
    SALO_EXPECTS(q.count() >= 1);
    return run(*compile(pattern, q.cols()), q, k, v, scale);
}

}  // namespace salo
