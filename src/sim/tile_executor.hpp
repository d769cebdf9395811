// Functional (bit-accurate, untimed) execution of TileTasks.
//
// Runs the exact integer datapath of the PE array — stage-1 MAC
// accumulation, PWL exponential, reciprocal broadcast, stage-4 normalize,
// stage-5 weighted sum — plus the global PE row and global PE column, and
// emits renormalizable TileParts into a PartArena: dispatched SIMD dot
// products, segment-wise key streaming (no per-column segment lookups), and
// arena-recycled parts with zero per-tile heap traffic. This is the
// functional fidelity's only datapath; the cycle-accurate model takes the
// same arguments and produces bit-identical parts. The seed's scalar tile
// loop survives only as a test/bench oracle (reference/seed_datapath.hpp).
#pragma once

#include <cstdint>

#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "scheduler/tile.hpp"
#include "sim/part_builder.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"

namespace salo {

class TileExecutor {
public:
    /// q/k/v hold raw Q3.4 int8 values for one attention head (n x d).
    TileExecutor(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                 const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                 const Matrix<std::int8_t>& v);

    /// Execute one tile, appending its output parts (PE-array rows,
    /// global-column contributions, global-row contribution, in that order)
    /// to `arena` and updating activity counters. `scratch` is reused across
    /// calls. Thread-safe: concurrent calls on one executor are fine as long
    /// as each thread owns its arena and scratch.
    void run(const TileTask& tile, PartArena& arena, ActivityStats& activity,
             PartScratch& scratch) const;

private:
    const PwlExp* exp_unit_;
    const Reciprocal* recip_unit_;
    const Matrix<std::int8_t>* q_;
    const Matrix<std::int8_t>* k_;
    const Matrix<std::int8_t>* v_;
};

}  // namespace salo
