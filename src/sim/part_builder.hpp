// Shared construction of a normalized TilePart from raw scores — the
// stage 2-5 datapath applied to one PE row (or to the global PE row/column).
// The functional TileExecutor builds every part here, and the cycle-accurate
// array builds its global-row and global-column parts here, so the two
// fidelities agree bit-for-bit on those by construction; the cycle-accurate
// model re-derives the PE-array rows cycle by cycle and is cross-checked
// against this path by tests.
#pragma once

#include <vector>

#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"

namespace salo {

/// Scratch buffers reused across build_part_into calls (no per-part heap
/// traffic). One instance per worker lane.
struct PartScratch {
    std::vector<ScoreRaw> scores;
    std::vector<int> keys;
    std::vector<ExpRaw> exps;
    std::vector<std::uint32_t> sps;  ///< stage-4 probabilities (Q.15)
};

/// Build the normalized output part for `query` given its `count` raw
/// scores and the key ids they belong to, as the next part of `arena` (no
/// part when every exp term underflows to weight 0). Updates exp/MAC
/// activity counters. Stage 5
/// accumulates sp * v directly into part.out_q in int32 — exact, because the
/// Q.15 probabilities of a row sum to ~1.0 (bounded by 1 + the reciprocal
/// unit's relative error), keeping |acc| < 2^23 — and the final Q.19 ->
/// Q.wsm_frac renormalization happens in place. Bit-identical to the seed's
/// int64 form for every input (tested against reference/seed_datapath.hpp).
void build_part_into(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                     const Matrix<std::int8_t>& v, int query, const ScoreRaw* scores,
                     const int* key_ids, int count, ActivityStats& activity,
                     PartArena& arena, PartScratch& scratch);

}  // namespace salo
