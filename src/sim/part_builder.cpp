#include "sim/part_builder.hpp"

#include "common/assert.hpp"
#include "sim/kernels.hpp"

namespace salo {

namespace {

/// Batched stage-2 evaluation: the SIMD kernel when the exponential unit
/// matches its fixed 8-segment layout AND the bounds that make the scalar
/// code's saturation branches unreachable hold (y_max < 17 is enforced by
/// the unit, so m_q << shift < 2^(y_max + exp_frac + 2) <= 2^33 never
/// overflows; y_min >= -40 keeps the down-shift below 64). Scalar loop
/// otherwise. Bit-identical either way.
inline void exp_batch(const PwlExp& exp_unit, const ScoreRaw* scores, ExpRaw* out,
                      int count) {
    int done = 0;
    const PwlExp::Config& cfg = exp_unit.config();
    if (kernels::pwl_exp_batch && cfg.seg_bits == 3 && cfg.y_min >= -40) {
        const kernels::PwlExpParams params{exp_unit.slope_data(), exp_unit.icept_data(),
                                           cfg.lut_frac, cfg.y_min, cfg.y_max};
        done = kernels::pwl_exp_batch(params, scores, out, count);
    }
    for (; done < count; ++done) out[done] = exp_unit.exp_raw(scores[done]);
}

}  // namespace

void build_part_into(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                     const Matrix<std::int8_t>& v, int query, const ScoreRaw* scores,
                     const int* key_ids, int count, ActivityStats& activity,
                     PartArena& arena, PartScratch& scratch) {
    const int d = v.cols();
    TilePart& part = arena.alloc(d);  // out_q zeroed and sized d
    part.query = query;

    // Stage 2: PWL exponential per element; stage 3: row accumulation.
    scratch.exps.resize(static_cast<std::size_t>(count));
    ExpRaw* exps = scratch.exps.data();
    exp_batch(exp_unit, scores, exps, count);
    SumRaw weight = 0;
    for (int c = 0; c < count; ++c) weight += exps[c];
    activity.exp_ops += count;
    part.weight = weight;
    if (weight == 0) {  // all terms underflowed; the part carries no mass
        arena.drop_last();
        return;
    }

    // Stage 3: broadcast 1/W; stage 4: S' = exp * inv.
    const InvRaw inv = recip_unit.inv_raw(weight);
    scratch.sps.resize(static_cast<std::size_t>(count));
    std::uint32_t* sps = scratch.sps.data();
    kernels::normalize_probs(exps, count, inv, sps);

    // Stage 5: out = sum_c S'_c * v_c at Q.(sprime+in) = Q.19, accumulated
    // in int32 directly in part.out_q (exact: the S' of one row sum to ~1.0,
    // so |acc| < 2^23), then renormalized in place to Q.wsm_frac.
    constexpr int acc_frac = Datapath::sprime_frac + Datapath::in_frac;  // 19
    constexpr int shift = acc_frac - Datapath::wsm_frac;                 // 3
    std::int32_t* out = part.out_q.data();
    kernels::wacc_sp_i8(out, sps, key_ids, count, v.data().data(), d);
    activity.mac_ops += static_cast<std::int64_t>(count) * d;
    kernels::round_shift_i32(out, d, shift);
}

}  // namespace salo
