// SaloEngine: the execution back end of the SALO reproduction.
//
// Drives the full pipeline of the paper's Figure 3: the hybrid sparse
// attention pattern and hardware metadata go to the data scheduler; the
// quantized Query/Key/Value stream through the spatial accelerator
// (functional or cycle-accurate model); per-part outputs are merged by the
// weighted-sum module (Eq. 2); the result is dequantized back to float.
//
// API lifecycle (see docs/API.md):
//
//   compile(pattern, head_dim, config) -> CompiledPlan   // once per shape
//   engine.run(plan, q, k, v, scale)   -> LayerResult    // many times
//
// The engine also keeps an internal PlanCache, so the legacy one-shot
// run_head(pattern, ...)/run(pattern, ...) calls — now thin shims over the
// compiled-plan API — no longer re-run the scheduler on every invocation.
// For request-level serving (many in-flight layers batched onto one worker
// pool) use SaloSession (core/session.hpp).
//
// Fidelity levels:
//   kGolden        — float masked attention, no hardware at all (oracle);
//   kFunctional    — bit-accurate fixed-point datapath, analytic cycles;
//   kCycleAccurate — bit-accurate datapath driven cycle-by-cycle (slow;
//                    validates the analytic cycle model).
//
// Execution: every head — a layer head or a decode-step head — runs one
// sequential tile loop, tiles in schedule order as the scheduler maps the
// head onto the array. The engine owns a persistent worker pool and
// parallelizes at one level, heads: a layer with two or more spreads whole
// heads over the pool lanes (a decode step does so above kStepFanOutWork),
// and a single head runs on the calling thread. Results are bit-identical
// to the one-thread run for every thread count: heads share no state and
// all datapath arithmetic is integer.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "common/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/errors.hpp"
#include "core/plan_cache.hpp"
#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "pattern/pattern.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cycle_formulas.hpp"
#include "sim/parts.hpp"
#include "tensor/tensor3.hpp"

namespace salo {

class WeightedSumModule;

struct HeadResult {
    Matrix<float> output;  ///< n x d attention output
    SimStats stats;
};

struct LayerResult {
    Tensor3<float> output;  ///< per-head n x d attention outputs
    SimStats stats;         ///< summed over heads
    ScheduleStats schedule; ///< the (head-independent) schedule statistics
};

/// One decode step's output: the attention row of the newly appended
/// position, per head (run_step).
struct StepResult {
    Tensor3<float> output;  ///< [heads][1][head_dim]
    SimStats stats;         ///< summed over heads
    int position = 0;       ///< query row in the full sequence
};

/// Per-run robustness controls (all optional; the zero-value runs exactly
/// like the plain overloads). Checked at tile boundaries, so an in-flight
/// run stops early on cancellation or deadline expiry by throwing the
/// typed error — results that do complete are untouched and keep the
/// bit-identity guarantee.
struct RunOptions {
    /// Execution fidelity; defaults to the engine's configured fidelity.
    std::optional<Fidelity> fidelity;
    /// Lanes for the heads of run() and run_step: <= 0 means the
    /// configured thread count (for the int8 run_step, work-sized:
    /// step_threads); 1 runs on the calling thread only, with no pool
    /// involvement, so many such calls can run concurrently; > 1 spreads
    /// the heads over the engine's whole pool (not a lane bound; concurrent
    /// calls serialize on that pool). A 1-head layer always runs on the
    /// calling thread. Results are bit-identical for every value.
    int thread_budget = 0;
    /// Checked at every tile boundary; fires RequestCancelled.
    CancellationToken cancel;
    /// Absolute deadline; past-due tile boundaries fire DeadlineExceeded.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Fault/stall injection hook (tests, overload experiments). Not
    /// owned; must outlive the run. Overrides SaloConfig::fault_injector.
    const FaultInjector* fault_injector = nullptr;
};

/// Work of one decode step, heads x compact K/V rows x head_dim, above
/// which an automatic thread budget fans the step's heads out over the
/// engine pool. Below it the pool still halves a step's wall time but
/// costs 30-46 % more CPU, so the step runs inline on the calling thread.
/// Measured by a span sweep; see engine.cpp and docs/PERFORMANCE.md.
extern const std::int64_t kStepFanOutWork;

/// The lanes a decode step runs on: an explicit `thread_budget` > 0 as
/// given; otherwise 1 while `work` <= kStepFanOutWork, else
/// `configured_threads`.
int step_threads(int thread_budget, int configured_threads, std::int64_t work);

class SaloEngine {
public:
    SaloEngine();  // default configuration
    explicit SaloEngine(const SaloConfig& config);

    const SaloConfig& config() const { return config_; }

    // --- Compiled-plan API -------------------------------------------------

    /// Compile `pattern` for `head_dim` through the engine's PlanCache:
    /// repeated shapes return the shared cached artifact without re-running
    /// the scheduler. Thread-safe.
    CompiledPlanPtr compile(const HybridPattern& pattern, int head_dim) const;

    /// Run one attention head on a compiled plan. `scale` (typically
    /// 1/sqrt(d)) is folded into Q before quantization, as the hardware
    /// driver would do. The plan must have been compiled for this engine's
    /// geometry and schedule options.
    HeadResult run_head(const CompiledPlan& plan, const Matrix<float>& q,
                        const Matrix<float>& k, const Matrix<float>& v,
                        float scale) const;

    /// Run a multi-head attention layer on a compiled plan; the schedule is
    /// shared across heads.
    LayerResult run(const CompiledPlan& plan, const Tensor3<float>& q,
                    const Tensor3<float>& k, const Tensor3<float>& v,
                    float scale) const;

    /// Full-control overload: fidelity/thread budget plus the robustness
    /// hooks (cancellation, deadline, fault injection) checked at tile
    /// boundaries. Throws RequestCancelled / DeadlineExceeded / EngineFault
    /// from the calling thread when a hook fires mid-run.
    LayerResult run(const CompiledPlan& plan, const Tensor3<float>& q,
                    const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                    const RunOptions& options) const;

    // --- Incremental decode API --------------------------------------------

    /// The decode micro-plan for the last row of `pattern` (a prefix
    /// pattern: n = prefix length, step position = n - 1), resolved through
    /// the engine's PlanCache (PlanCache::get_or_derive_step): warm-up
    /// positions are derived once per stream shape and kept in its step
    /// family, later positions relabel a template, and nothing enters the
    /// LRU of whole-sequence plans. Requires decode_compatible(pattern).
    CompiledPlanPtr compile_step(const HybridPattern& pattern, int head_dim) const;

    /// Execute one decode step: query row `position` of the micro-plan's
    /// pattern against the compact K/V layout DecodeState::assemble()
    /// produces. `q_row` is heads x head_dim (one query row per head);
    /// `k`/`v` are [heads][compact_rows][head_dim]. Bit-identical to row
    /// `position` of run() over the full prefix at the same fidelity:
    /// the micro-plan replays exactly the tiles/parts the full schedule
    /// emits for that row, in the same order, through the same integer
    /// datapath. Robustness hooks behave as in run(). At functional and
    /// cycle-accurate fidelity this quantizes k/v and runs the int8
    /// overload's core; golden fidelity computes in float. An automatic
    /// thread budget fans the heads out over the whole pool, as run() does.
    StepResult run_step(const CompiledPlan& micro, const Matrix<float>& q_row,
                        const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                        const RunOptions& options = {}) const;

    /// The same step on K/V already quantized to InputFx raw int8
    /// (DecodeState::assemble_quantized()), so nothing is requantized.
    /// Functional and cycle-accurate fidelity only (ContractViolation at
    /// golden, which needs the float rows). Bit-identical to the float
    /// overload on the float rows these were quantized from. An automatic
    /// thread budget runs steps up to kStepFanOutWork inline.
    StepResult run_step(const CompiledPlan& micro, const Matrix<float>& q_row,
                        const Tensor3<std::int8_t>& kq, const Tensor3<std::int8_t>& vq,
                        float scale, const RunOptions& options = {}) const;

    /// Cumulative statistics of the internal PlanCache serving compile()
    /// and the legacy shims.
    PlanCacheStats plan_cache_stats() const;

    // --- Legacy one-shot API (shims over compile + run) --------------------

    /// Equivalent to run_head(*compile(pattern, q.cols()), ...).
    HeadResult run_head(const HybridPattern& pattern, const Matrix<float>& q,
                        const Matrix<float>& k, const Matrix<float>& v, float scale) const;

    /// Equivalent to run(*compile(pattern, q.cols()), ...).
    LayerResult run(const HybridPattern& pattern, const Tensor3<float>& q,
                    const Tensor3<float>& k, const Tensor3<float>& v, float scale) const;

    /// The schedule this engine would use for `pattern` with head dim `d`
    /// (uncached direct scheduler invocation; prefer compile()).
    SchedulePlan plan(const HybridPattern& pattern, int head_dim) const;

    /// Float oracle for the same computation (no quantization, no hardware).
    static Matrix<float> golden(const HybridPattern& pattern, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v, float scale);

private:
    friend class SaloSession;    ///< batches requests onto the engine's pool
    friend class DecodeSession;  ///< batches decode steps onto the engine's pool

    /// Resolved robustness hooks for one run; null pointer = none active,
    /// which keeps the hot path free of per-tile clock reads and atomics.
    struct RunControl {
        const CancellationToken* cancel = nullptr;  ///< non-null iff cancellable
        bool has_deadline = false;
        std::chrono::steady_clock::time_point deadline{};
        const FaultInjector* fault = nullptr;

        bool active() const { return cancel != nullptr || has_deadline || fault != nullptr; }

        /// Called before executing tile `tile` (schedule order; -1 marks a
        /// head boundary on paths without a tile loop).
        void check(int tile) const {
            if (cancel != nullptr && cancel->cancelled())
                throw RequestCancelled("request cancelled at tile boundary " +
                                       std::to_string(tile));
            if (has_deadline && std::chrono::steady_clock::now() > deadline)
                throw DeadlineExceeded("deadline exceeded at tile boundary " +
                                       std::to_string(tile));
            // The injector gets the deadline and token so an injected stall
            // is bounded by them (it throws instead of sleeping past either).
            if (fault != nullptr)
                fault->on_tile(tile,
                               has_deadline ? std::optional<std::chrono::steady_clock::
                                                                time_point>(deadline)
                                            : std::nullopt,
                               cancel);
        }
    };

    /// The plan must match this engine's geometry/options (checked).
    void check_compatible(const CompiledPlan& plan) const;

    /// The hooks of `options` (pointers into it), with the configured
    /// fault injector as fallback.
    RunControl run_control(const RunOptions& options) const;

    /// One layer head: quantize, then the tile loop into a fresh n x d
    /// weighted-sum module. `ctl` may be null (no robustness hooks active).
    HeadResult run_head_impl(const SchedulePlan& plan, const HybridPattern& pattern,
                             const Matrix<float>& q, const Matrix<float>& k,
                             const Matrix<float>& v, float scale, Fidelity fidelity,
                             const RunControl* ctl = nullptr) const;

    /// The tile loop every layer head and decode-step head runs: the plan's
    /// tiles in schedule order through the reference, arena or
    /// cycle-accurate datapath, each tile's parts merged into `wsm` and its
    /// cycles accounted into `stats`. Its buffers are the calling thread's,
    /// so the arena datapath allocates nothing in steady state.
    void run_tiles(const SchedulePlan& plan, Fidelity fidelity,
                   const Matrix<std::int8_t>& qq, const Matrix<std::int8_t>& kq,
                   const Matrix<std::int8_t>& vq, const RunControl* ctl,
                   WeightedSumModule& wsm, SimStats& stats) const;

    /// One head of one decode step on the integer datapath, its output row
    /// written into `out` (1 x d): run_tiles into the calling thread's 1 x d
    /// weighted-sum module, kept across heads and steps.
    SimStats run_step_head(const CompiledPlan& micro, const Matrix<float>& q_row, int head,
                           const Matrix<std::int8_t>& kq, const Matrix<std::int8_t>& vq,
                           float scale, Fidelity fidelity, const RunControl* ctl,
                           Matrix<float>& out) const;

    /// One head of one decode step at golden fidelity (float oracle).
    SimStats golden_step_head(const CompiledPlan& micro, const Matrix<float>& q_row,
                              int head, const Matrix<float>& k, const Matrix<float>& v,
                              float scale, const RunControl* ctl, Matrix<float>& out) const;

    /// Shared shell of both run_step overloads: shape checks, hooks, and
    /// the head loop, parallel across heads on the lanes the thread budget
    /// resolves to (`work_sized`: by step_threads, else as in run());
    /// head_fn(h, ctl, out) computes head h into `out` and returns its
    /// stats.
    template <typename T, typename HeadFn>
    StepResult run_step_heads(const CompiledPlan& micro, const Matrix<float>& q_row,
                              const Tensor3<T>& k, const Tensor3<T>& v,
                              const RunOptions& options, bool work_sized,
                              HeadFn&& head_fn) const;

    /// The persistent worker pool (built on first use, sized num_threads).
    ThreadPool& pool() const;

    SaloConfig config_;
    PwlExp exp_unit_;
    Reciprocal recip_unit_;
    mutable PlanCache plan_cache_;
    mutable std::once_flag pool_once_;
    mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace salo
