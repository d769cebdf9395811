// Cycle-accurate model of the spatial accelerator (paper §5, Fig. 5/6).
//
// Executes one TileTask by marching through the five datapath stages with
// explicit per-cycle loops and per-PE architectural state:
//
//   stage 1 — output-stationary systolic Q*K^T: PE(r,c) fires its MAC in the
//             cycle window [r+c, r+c+d), exactly the skew of diagonal K/V
//             streams meeting horizontally-flowing queries;
//   stage 2 — PWL exponential in every PE (parallel; fixed latency);
//   stage 3 — row-ripple accumulation left->right (one column per cycle),
//             reciprocal-unit latency, one broadcast cycle;
//   stage 4 — S' = exp * (1/W) multiply;
//   stage 5 — weight-stationary S'*V: output element t leaves the row at
//             cycle t + cols_used - 1; weighted-sum pipeline tail.
//
// It takes the functional TileExecutor's arguments (tile, arena, activity,
// scratch) and emits the same parts in the same order, bit for bit: the
// PE-array rows come out of the per-cycle loops above, and the global PE row
// and column parts out of the shared build_part_into (sim/part_builder.hpp).
// What this model adds is *measured* cycle counts and PE-activity traces
// that validate the closed-form formulas in cycle_formulas.hpp and feed the
// utilization comparison of paper §6.3.
#pragma once

#include <cstdint>

#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "scheduler/tile.hpp"
#include "sim/cycle_formulas.hpp"
#include "sim/part_builder.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"

namespace salo {

class CycleAccurateArray {
public:
    CycleAccurateArray(const ArrayGeometry& geometry, const CycleConfig& cycle_config,
                       const PwlExp& exp_unit, const Reciprocal& recip_unit,
                       const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                       const Matrix<std::int8_t>& v);

    /// Execute one tile cycle-by-cycle. Appends its output parts to `arena`
    /// in TileExecutor::run's order, accumulates activity (including
    /// pe_cycles) and returns the measured breakdown. `scratch` is reused
    /// across calls, as for the functional executor.
    CycleBreakdown run(const TileTask& tile, PartArena& arena, ActivityStats& activity,
                       PartScratch& scratch) const;

private:
    ArrayGeometry geometry_;
    CycleConfig cycle_config_;
    const PwlExp* exp_unit_;
    const Reciprocal* recip_unit_;
    const Matrix<std::int8_t>* q_;
    const Matrix<std::int8_t>* k_;
    const Matrix<std::int8_t>* v_;
};

}  // namespace salo
