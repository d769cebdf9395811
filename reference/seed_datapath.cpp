#include "reference/seed_datapath.hpp"

#include "common/assert.hpp"
#include "numeric/quantize.hpp"
#include "sim/tile_costs.hpp"
#include "sim/wsm.hpp"

namespace salo {

TilePart build_part(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                    const Matrix<std::int8_t>& v, int query,
                    const std::vector<ScoreRaw>& scores, const std::vector<int>& key_ids,
                    ActivityStats& activity) {
    SALO_EXPECTS(scores.size() == key_ids.size());
    const int d = v.cols();
    TilePart part;
    part.query = query;
    part.out_q.assign(static_cast<std::size_t>(d), 0);

    // Stage 2: PWL exponential per element; stage 3: row accumulation.
    std::vector<ExpRaw> exps(scores.size());
    SumRaw weight = 0;
    for (std::size_t c = 0; c < scores.size(); ++c) {
        exps[c] = exp_unit.exp_raw(scores[c]);
        weight += exps[c];
    }
    activity.exp_ops += static_cast<std::int64_t>(scores.size());
    part.weight = weight;
    if (weight == 0) return part;  // all terms underflowed; part carries no mass

    // Stage 3: broadcast 1/W; stage 4: S' = exp * inv.
    const InvRaw inv = recip_unit.inv_raw(weight);

    // Stage 5: out = sum_c S'_c * v_c at Q.(sprime+in) = Q.19, renormalized
    // to the weighted-sum module's Q.wsm_frac.
    constexpr int acc_frac = Datapath::sprime_frac + Datapath::in_frac;  // 19
    constexpr int shift = acc_frac - Datapath::wsm_frac;                 // 3
    std::vector<std::int64_t> acc(static_cast<std::size_t>(d), 0);
    for (std::size_t c = 0; c < scores.size(); ++c) {
        const SprimeRaw sp = normalize_prob(exps[c], inv);
        if (sp == 0) continue;
        const auto vrow = v.row(key_ids[c]);
        for (int t = 0; t < d; ++t)
            acc[static_cast<std::size_t>(t)] +=
                static_cast<std::int64_t>(sp) *
                static_cast<std::int64_t>(vrow[static_cast<std::size_t>(t)]);
    }
    activity.mac_ops += static_cast<std::int64_t>(scores.size()) * d;
    for (int t = 0; t < d; ++t)
        part.out_q[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(
            round_shift(acc[static_cast<std::size_t>(t)], shift));
    return part;
}

ReferenceTileExecutor::ReferenceTileExecutor(const PwlExp& exp_unit,
                                             const Reciprocal& recip_unit,
                                             const Matrix<std::int8_t>& q,
                                             const Matrix<std::int8_t>& k,
                                             const Matrix<std::int8_t>& v)
    : exp_unit_(&exp_unit), recip_unit_(&recip_unit), q_(&q), k_(&k), v_(&v) {
    SALO_EXPECTS(q.cols() == k.cols() && k.rows() == v.rows() && k.cols() == v.cols());
}

ScoreRaw ReferenceTileExecutor::score(int qi, int ki) const {
    const auto qrow = q_->row(qi);
    const auto krow = k_->row(ki);
    std::int32_t acc = 0;  // Q.(2*in_frac) = Q.8 = Q.acc_frac
    for (std::size_t t = 0; t < qrow.size(); ++t)
        acc += static_cast<std::int32_t>(qrow[t]) * static_cast<std::int32_t>(krow[t]);
    return acc;
}

void ReferenceTileExecutor::run(const TileTask& tile, std::vector<TilePart>& parts,
                                ActivityStats& activity) const {
    const int rows = tile.rows();
    const int cols = tile.cols();
    const int nn = k_->rows();

    std::vector<ScoreRaw> scores;
    std::vector<int> keys;

    // PE-array rows: the window part of the pattern.
    for (int r = 0; r < rows; ++r) {
        const int qi = tile.query_ids[static_cast<std::size_t>(r)];
        scores.clear();
        keys.clear();
        if (qi >= 0) {
            for (int c = 0; c < cols; ++c) {
                if (!tile.is_valid(r, c)) continue;
                const std::int64_t key = tile.key_at(r, c);
                SALO_ASSERT(key >= 0 && key < nn);
                const int ki = static_cast<int>(key);
                scores.push_back(score(qi, ki));
                keys.push_back(ki);
            }
            activity.mac_ops += static_cast<std::int64_t>(scores.size()) * head_dim();
        }
        if (!scores.empty()) {
            TilePart part = build_part(*exp_unit_, *recip_unit_, *v_, qi, scores, keys,
                                       activity);
            if (part.weight > 0) parts.push_back(std::move(part));
        }

        // Global PE column: q_i against the global key (single-element part:
        // its normalized output is v_g itself, with weight exp(q_i . k_g)).
        if (tile.global_col_key >= 0 && !tile.global_col_rows.empty() &&
            tile.global_col_rows[static_cast<std::size_t>(r)] != 0) {
            SALO_ASSERT(qi >= 0);
            const int g = tile.global_col_key;
            scores.assign(1, score(qi, g));
            keys.assign(1, g);
            activity.mac_ops += head_dim();
            TilePart part = build_part(*exp_unit_, *recip_unit_, *v_, qi, scores, keys,
                                       activity);
            if (part.weight > 0) parts.push_back(std::move(part));
        }
    }

    // Global PE row: the global query against this tile's fresh keys.
    if (tile.global_row_query >= 0) {
        const int g = tile.global_row_query;
        scores.clear();
        keys.clear();
        int slot = 0;
        for (const TileSegment& seg : tile.segments) {
            const int len = seg.stream_length(rows);
            for (int s = 0; s < len; ++s, ++slot) {
                if (tile.global_fresh[static_cast<std::size_t>(slot)] == 0) continue;
                const std::int64_t key = seg.stream_key(s);
                SALO_ASSERT(key >= 0 && key < nn);
                scores.push_back(score(g, static_cast<int>(key)));
                keys.push_back(static_cast<int>(key));
            }
        }
        if (!scores.empty()) {
            activity.mac_ops += static_cast<std::int64_t>(scores.size()) * head_dim();
            TilePart part = build_part(*exp_unit_, *recip_unit_, *v_, g, scores, keys,
                                       activity);
            if (part.weight > 0) parts.push_back(std::move(part));
        }
    }

    activity.valid_slots += tile.num_valid_slots();
    activity.array_slots += static_cast<std::int64_t>(rows) * cols;
}

LayerResult reference_run(const SaloConfig& config, const CompiledPlan& plan,
                          const Tensor3<float>& q, const Tensor3<float>& k,
                          const Tensor3<float>& v, float scale) {
    SALO_EXPECTS(!plan.is_step());
    SALO_EXPECTS(q.count() >= 1 && q.count() == k.count() && k.count() == v.count());
    const SchedulePlan& p = plan.plan();
    const int heads = q.count();
    const int n = q.rows();
    const int d = q.cols();
    SALO_EXPECTS(p.n == n && p.head_dim == d);

    const PwlExp exp_unit(config.exp_config);
    const Reciprocal recip_unit(config.recip_config);
    LayerResult result;
    result.output = Tensor3<float>(heads, n, d);
    result.schedule = p.stats;
    std::vector<TilePart> parts;
    for (int h = 0; h < heads; ++h) {
        Matrix<float> q_scaled = q[h];
        for (float& x : q_scaled.data()) x *= scale;
        const Matrix<std::int8_t> qq = quantize<InputFx>(q_scaled);
        const Matrix<std::int8_t> kq = quantize<InputFx>(k[h]);
        const Matrix<std::int8_t> vq = quantize<InputFx>(v[h]);

        const ReferenceTileExecutor exec(exp_unit, recip_unit, qq, kq, vq);
        WeightedSumModule wsm(n, d, recip_unit);
        TileCostAccountant accountant(config.tile_cost_params(d));
        SimStats& stats = result.stats;
        for (const TileTask& tile : p.tiles) {
            parts.clear();
            exec.run(tile, parts, stats.activity);
            for (const TilePart& part : parts) wsm.merge(part);

            const TileCostAccountant::Step step = accountant.account(tile);
            stats.cycles += step.cycles;
            ++stats.tiles;
            for (int s = 0; s < 5; ++s)
                stats.stage_totals.stage[s] += step.cost.breakdown.stage[s];
            stats.activity.pe_cycles += static_cast<std::int64_t>(tile.rows()) *
                                        tile.cols() * step.cost.breakdown.total();
        }
        result.output[h] = wsm.finalize();
    }
    return result;
}

}  // namespace salo
