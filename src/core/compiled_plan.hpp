// CompiledPlan: the immutable artifact separating workload *compilation*
// from *execution* in the serving API.
//
//   compile(pattern, head_dim, config)  ->  CompiledPlan
//
// runs the data scheduler once and captures everything the engine needs to
// execute the workload repeatedly: the tile schedule, its statistics, the
// pattern (still needed by the golden oracle and for cache-collision
// checks), and a 64-bit content fingerprint of (pattern, geometry,
// schedule options, head_dim) — the exact inputs of schedule(). Two
// compilations have equal fingerprints iff those inputs are equal, so the
// fingerprint is the PlanCache key.
//
// CompiledPlan is deeply immutable after construction and safe to share
// across threads, sessions and engines with the same geometry/options
// (typically as std::shared_ptr<const CompiledPlan>).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/config.hpp"
#include "pattern/pattern.hpp"
#include "scheduler/scheduler.hpp"

namespace salo {

/// Geometry of a decode step's compact key-space (derive_micro_plan). The
/// step computes query row `position` of the full pattern against the
/// compact K/V layout DecodeState::assemble() produces:
/// [num_globals pinned rows][positions window_lo .. position].
struct StepGeometry {
    int position = 0;      ///< query row t in the full sequence (= pattern n - 1)
    int window_lo = 0;     ///< first ring position: max(0, t - (window_span - 1))
    int num_globals = 0;   ///< pinned rows ahead of the ring section
    int window_span = 0;   ///< ring capacity: decode_window_span(bands)
    int compact_rows = 0;  ///< num_globals + (t - window_lo + 1)
};

class CompiledPlan {
public:
    /// Built by compile() / derive_micro_plan(); use those entry points
    /// rather than this ctor. `step` is set only on micro-plans.
    CompiledPlan(HybridPattern pattern, SchedulePlan plan, std::uint64_t fingerprint,
                 std::optional<StepGeometry> step = std::nullopt)
        : CompiledPlan(std::move(pattern),
                       std::make_shared<const SchedulePlan>(std::move(plan)), fingerprint,
                       step) {}
    /// Shares `plan` with other artifacts (relabel_micro_plan reuses its
    /// template's tiles instead of copying them).
    CompiledPlan(HybridPattern pattern, std::shared_ptr<const SchedulePlan> plan,
                 std::uint64_t fingerprint, std::optional<StepGeometry> step = std::nullopt)
        : pattern_(std::move(pattern)), plan_(std::move(plan)),
          fingerprint_(fingerprint), step_(step) {}

    const HybridPattern& pattern() const { return pattern_; }
    int n() const { return plan_->n; }
    int head_dim() const { return plan_->head_dim; }
    const ArrayGeometry& geometry() const { return plan_->geometry; }
    const ScheduleOptions& options() const { return plan_->options; }
    const SchedulePlan& plan() const { return *plan_; }
    const ScheduleStats& schedule_stats() const { return plan_->stats; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    /// True for a decode micro-plan: plan().n is then the compact key-row
    /// count (StepGeometry::compact_rows), not a sequence length, and the
    /// plan is executable only through SaloEngine::run_step.
    bool is_step() const { return step_.has_value(); }
    const StepGeometry& step() const {
        SALO_EXPECTS(step_.has_value());
        return *step_;
    }

private:
    friend CompiledPlan relabel_micro_plan(const CompiledPlan& tmpl,
                                           const HybridPattern& prefix);

    HybridPattern pattern_;
    std::shared_ptr<const SchedulePlan> plan_;
    std::uint64_t fingerprint_;
    std::optional<StepGeometry> step_;
};

using CompiledPlanPtr = std::shared_ptr<const CompiledPlan>;

/// The cache key compile() stamps on its artifact: the combined content
/// hash of every scheduling input. Exposed so callers can key their own
/// caches the same way.
std::uint64_t plan_fingerprint(const HybridPattern& pattern, int head_dim,
                               const ArrayGeometry& geometry,
                               const ScheduleOptions& options);

/// Compile `pattern` for head dimension `head_dim` under `config`
/// (geometry + schedule options; the execution knobs are ignored).
/// Validates the config first and throws ContractViolation on nonsense.
CompiledPlan compile(const HybridPattern& pattern, int head_dim,
                     const SaloConfig& config);

/// Shared-ownership variant for callers that pass plans around.
CompiledPlanPtr compile_shared(const HybridPattern& pattern, int head_dim,
                               const SaloConfig& config);

// ---------------------------------------------------------------------------
// Streaming-decode micro-plans.
// ---------------------------------------------------------------------------

/// Can this pattern drive incremental decode? Requires 1D (no grid), causal
/// bands (no look-ahead), and every global token inside the ring span — a
/// step *on* a global position must find its whole fresh history in the
/// ring, so globals beyond the span would reference evicted rows.
bool decode_compatible(const HybridPattern& pattern);

/// Cache key of the step micro-plan derived from a full plan with
/// `full_fingerprint` at query position `position`. A distinct type tag
/// keeps every micro-plan key disjoint from every full-plan key, so both
/// kinds share one PlanCache without aliasing.
std::uint64_t step_plan_fingerprint(std::uint64_t full_fingerprint, int position);

/// Derive the decode micro-plan for the *last* row of `full` (position
/// t = full.n() - 1): keep exactly the tiles that touch query t, deactivate
/// every other query row, and rewrite key references from absolute sequence
/// positions into DecodeState's compact layout
/// ([globals][window_lo .. t]). Executing the result with run_step against
/// the assembled compact K/V is bit-identical to row t of running `full`
/// over the whole prefix. Preconditions: !full.is_step(),
/// decode_compatible(full.pattern()).
CompiledPlan derive_micro_plan(const CompiledPlan& full);
CompiledPlanPtr derive_micro_plan_shared(const CompiledPlan& full);

/// Where a decode-compatible pattern's micro-plans start to repeat. From
/// `start` on (T0 = window span + largest global, so every global has left
/// the ring window and no window key is clipped or global), the micro-plan
/// at position t is tile-for-tile the one at t - `period` (P = geometry.rows
/// x lcm of the band dilations: the sequence-splitting blocks of every
/// dilation class line up again). Only the StepGeometry position and
/// window_lo, the fingerprint and the prefix pattern differ. `period` is 0
/// when P would exceed 16384 positions (a template table that size is not
/// worth keeping); such patterns are never relabelled.
struct StepPeriod {
    int start = 0;
    int period = 0;
};

StepPeriod step_period(const HybridPattern& pattern, const ArrayGeometry& geometry);

/// The micro-plan for the last row of `prefix`, built from `tmpl`, the
/// micro-plan of an earlier position s of the same stream shape, without
/// running the scheduler: the tiles are shared and the position, window_lo,
/// fingerprint and pattern are set for t = prefix.n() - 1. Equal to
/// derive_micro_plan(compile(prefix)) when s >= T0 and (t - s) % P == 0
/// (checked, with the bands and globals of both patterns).
CompiledPlan relabel_micro_plan(const CompiledPlan& tmpl, const HybridPattern& prefix);

}  // namespace salo
