// The seed's scalar datapath, kept as a test and bench oracle (the
// salo_reference target; built only with tests or benches, never part of
// salo_core).
//
// These are the original per-tile loops of the functional model: one
// scalar dot product per score, a heap-allocated TilePart per PE row, and
// stage 5 accumulated in int64. The library's two datapaths — TileExecutor's
// arena run (functional) and CycleAccurateArray (cycle-accurate) — must
// reproduce them bit for bit; reference_run is the whole-layer form the
// bit-identity tests and bench_throughput's seed baseline compare against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compiled_plan.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "scheduler/tile.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor3.hpp"

namespace salo {

/// Stage 2-5 of one PE row (or the global PE row/column): the normalized
/// output part for `query` given its raw scores and the key ids they belong
/// to. Allocates the part and accumulates stage 5 in int64. Updates exp/MAC
/// activity counters.
TilePart build_part(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                    const Matrix<std::int8_t>& v, int query,
                    const std::vector<ScoreRaw>& scores, const std::vector<int>& key_ids,
                    ActivityStats& activity);

/// The seed's functional tile executor: same constructor and the same parts
/// in the same order as TileExecutor::run, into a plain vector.
class ReferenceTileExecutor {
public:
    /// q/k/v hold raw Q3.4 int8 values for one attention head (n x d).
    ReferenceTileExecutor(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                          const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                          const Matrix<std::int8_t>& v);

    /// Execute one tile, appending its output parts (PE-array rows,
    /// global-column contributions, global-row contribution, in that order)
    /// to `parts` and updating activity counters.
    void run(const TileTask& tile, std::vector<TilePart>& parts,
             ActivityStats& activity) const;

    /// Stage-1 dot product: sum_t q[qi][t]*k[ki][t], raw Q.acc_frac.
    ScoreRaw score(int qi, int ki) const;

    int head_dim() const { return q_->cols(); }

private:
    const PwlExp* exp_unit_;
    const Reciprocal* recip_unit_;
    const Matrix<std::int8_t>* q_;
    const Matrix<std::int8_t>* k_;
    const Matrix<std::int8_t>* v_;
};

/// A whole layer through the seed datapath, sequentially: quantize (Q scaled
/// by `scale` first), run every head's tiles in schedule order through
/// ReferenceTileExecutor, merge the parts in a WeightedSumModule, and account
/// cycles with TileCostAccountant under `config`. Outputs and SimStats equal
/// SaloEngine::run at functional fidelity (and at cycle-accurate fidelity)
/// bit for bit. `plan` must be a whole-sequence plan, not a decode
/// micro-plan.
LayerResult reference_run(const SaloConfig& config, const CompiledPlan& plan,
                          const Tensor3<float>& q, const Tensor3<float>& k,
                          const Tensor3<float>& v, float scale);

}  // namespace salo
