#include "core/compiled_plan.hpp"

#include <algorithm>
#include <numeric>

#include "common/hash.hpp"

namespace salo {

std::uint64_t plan_fingerprint(const HybridPattern& pattern, int head_dim,
                               const ArrayGeometry& geometry,
                               const ScheduleOptions& options) {
    Fnv1a h;
    h.mix(std::uint64_t{0x5A10'0004});  // type tag: plan key
    h.mix(pattern.fingerprint());
    h.mix(head_dim);
    h.mix(geometry.fingerprint());
    h.mix(options.fingerprint());
    return h.digest();
}

CompiledPlan compile(const HybridPattern& pattern, int head_dim,
                     const SaloConfig& config) {
    config.validate();
    SALO_EXPECTS(head_dim >= 1);
    SchedulePlan plan =
        schedule(pattern, config.geometry, head_dim, config.schedule_options);
    const std::uint64_t key =
        plan_fingerprint(pattern, head_dim, config.geometry, config.schedule_options);
    return CompiledPlan(pattern, std::move(plan), key);
}

CompiledPlanPtr compile_shared(const HybridPattern& pattern, int head_dim,
                               const SaloConfig& config) {
    return std::make_shared<const CompiledPlan>(compile(pattern, head_dim, config));
}

// ---------------------------------------------------------------------------
// Streaming-decode micro-plans.
// ---------------------------------------------------------------------------

bool decode_compatible(const HybridPattern& pattern) {
    if (pattern.grid_width() != 0) return false;
    if (!is_causal(pattern.bands())) return false;
    const int span = decode_window_span(pattern.bands());
    for (int g : pattern.global_tokens())
        if (g >= span) return false;
    return true;
}

std::uint64_t step_plan_fingerprint(std::uint64_t full_fingerprint, int position) {
    Fnv1a h;
    h.mix(std::uint64_t{0x5A10'0005});  // type tag: step micro-plan key
    h.mix(full_fingerprint);
    h.mix(position);
    return h.digest();
}

CompiledPlan derive_micro_plan(const CompiledPlan& full) {
    SALO_EXPECTS(!full.is_step());
    const HybridPattern& pattern = full.pattern();
    SALO_EXPECTS(decode_compatible(pattern));

    const int t = full.n() - 1;
    const int span = decode_window_span(pattern.bands());
    const int window_lo = std::max(0, t - (span - 1));
    const std::vector<int>& globals = pattern.global_tokens();
    const int num_globals = static_cast<int>(globals.size());
    const int compact_rows = num_globals + (t - window_lo + 1);
    // Absolute key position j in the window maps to compact row
    // num_globals + (j - window_lo); segment key streams are affine in the
    // key id with slope 1, so one key_base shift remaps a whole segment.
    const std::int64_t shift = num_globals - window_lo;

    SchedulePlan micro;
    micro.geometry = full.geometry();
    micro.n = compact_rows;
    micro.head_dim = full.head_dim();
    micro.options = full.options();

    for (const TileTask& tile : full.plan().tiles) {
        // Locate query t's PE row in this tile, if any.
        int r_t = -1;
        for (int r = 0; r < tile.rows(); ++r) {
            if (tile.query_ids[static_cast<std::size_t>(r)] == t) {
                r_t = r;
                break;
            }
        }
        bool keep_window = false;
        if (r_t >= 0) {
            for (int c = 0; c < tile.cols() && !keep_window; ++c)
                if (tile.is_valid(r_t, c)) keep_window = true;
        }
        const bool keep_gcol = r_t >= 0 && tile.global_col_key >= 0 &&
                               tile.global_col_rows[static_cast<std::size_t>(r_t)] != 0;
        const bool keep_grow = tile.global_row_query == t;
        if (!keep_window && !keep_gcol && !keep_grow) continue;

        TileTask m = tile;

        // Single live query: row r_t keeps its PE-row index (the diagonal
        // key streams are keyed off the row index), but becomes query 0 of
        // the one-row step output. Every other row goes dark.
        for (auto& qid : m.query_ids) qid = -1;
        if (r_t >= 0) m.query_ids[static_cast<std::size_t>(r_t)] = 0;
        const int cols = m.cols();
        for (int r = 0; r < m.rows(); ++r) {
            if (r == r_t) continue;
            for (int c = 0; c < cols; ++c)
                m.valid[static_cast<std::size_t>(r * cols + c)] = 0;
        }

        // Window keys: absolute -> compact ring section. Segments that only
        // served deactivated rows may go negative; the executor never
        // dereferences keys of invalid slots, so that is harmless.
        for (TileSegment& seg : m.segments) seg.key_base += shift;

        // Global column: query t's contribution survives, rewritten to the
        // pinned copy of the global key; other rows' contributions go dark.
        if (keep_gcol) {
            const auto pin = std::lower_bound(globals.begin(), globals.end(),
                                              static_cast<int>(m.global_col_key));
            SALO_ASSERT(pin != globals.end() && *pin == m.global_col_key);
            m.global_col_key = static_cast<std::int32_t>(pin - globals.begin());
            std::fill(m.global_col_rows.begin(), m.global_col_rows.end(),
                      static_cast<std::uint8_t>(0));
            m.global_col_rows[static_cast<std::size_t>(r_t)] = 1;
        } else {
            m.global_col_key = -1;
            std::fill(m.global_col_rows.begin(), m.global_col_rows.end(),
                      static_cast<std::uint8_t>(0));
        }

        // Global row: kept only when t itself is global. t global implies
        // t < span (decode_compatible), so window_lo == 0 and every fresh
        // stream key remaps in-bounds into the ring section via `shift`.
        if (keep_grow) {
            m.global_row_query = 0;
        } else {
            m.global_row_query = -1;
            std::fill(m.global_fresh.begin(), m.global_fresh.end(),
                      static_cast<std::uint8_t>(0));
        }

        micro.tiles.push_back(std::move(m));
    }

    for (const TileTask& m : micro.tiles) {
        micro.stats.total_slots +=
            static_cast<std::int64_t>(m.rows()) * static_cast<std::int64_t>(m.cols());
        micro.stats.valid_slots += m.num_valid_slots();
        if (m.has_window_work())
            ++micro.stats.window_tiles;
        else
            ++micro.stats.catchup_tiles;
        if (m.global_row_query >= 0)
            for (auto f : m.global_fresh) micro.stats.global_row_ops += f;
        if (m.global_col_key >= 0)
            for (auto f : m.global_col_rows) micro.stats.global_col_ops += f;
    }

    const StepGeometry step{t, window_lo, num_globals, span, compact_rows};
    return CompiledPlan(pattern, std::move(micro),
                        step_plan_fingerprint(full.fingerprint(), t), step);
}

CompiledPlanPtr derive_micro_plan_shared(const CompiledPlan& full) {
    return std::make_shared<const CompiledPlan>(derive_micro_plan(full));
}

StepPeriod step_period(const HybridPattern& pattern, const ArrayGeometry& geometry) {
    constexpr std::int64_t kMaxStepPeriod = 1 << 14;
    SALO_EXPECTS(decode_compatible(pattern));
    const std::vector<int>& globals = pattern.global_tokens();
    StepPeriod sp;
    sp.start = decode_window_span(pattern.bands()) + (globals.empty() ? 0 : globals.back());
    std::int64_t dilations = 1;
    for (const Band& b : pattern.bands()) {
        dilations = std::lcm(dilations, static_cast<std::int64_t>(b.dilation));
        if (dilations * geometry.rows > kMaxStepPeriod) return sp;
    }
    sp.period = static_cast<int>(dilations * geometry.rows);
    return sp;
}

CompiledPlan relabel_micro_plan(const CompiledPlan& tmpl, const HybridPattern& prefix) {
    SALO_EXPECTS(tmpl.is_step());
    SALO_EXPECTS(prefix.bands() == tmpl.pattern().bands());
    SALO_EXPECTS(prefix.global_tokens() == tmpl.pattern().global_tokens());
    const StepPeriod sp = step_period(prefix, tmpl.geometry());
    const StepGeometry& from = tmpl.step();
    const int t = prefix.n() - 1;
    SALO_EXPECTS(sp.period > 0 && from.position >= sp.start && t >= sp.start);
    SALO_EXPECTS((t - from.position) % sp.period == 0);

    StepGeometry step = from;
    step.position = t;
    step.window_lo = t - (step.window_span - 1);
    const std::uint64_t full_key =
        plan_fingerprint(prefix, tmpl.head_dim(), tmpl.geometry(), tmpl.options());
    return CompiledPlan(prefix, tmpl.plan_, step_plan_fingerprint(full_key, t), step);
}

}  // namespace salo
