#include "sim/tile_executor.hpp"

#include "common/assert.hpp"
#include "sim/kernels.hpp"

namespace salo {

TileExecutor::TileExecutor(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                           const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                           const Matrix<std::int8_t>& v)
    : exp_unit_(&exp_unit), recip_unit_(&recip_unit), q_(&q), k_(&k), v_(&v) {
    SALO_EXPECTS(q.cols() == k.cols() && k.rows() == v.rows() && k.cols() == v.cols());
}

void TileExecutor::run(const TileTask& tile, PartArena& arena, ActivityStats& activity,
                       PartScratch& scratch) const {
    const int rows = tile.rows();
    const int cols = tile.cols();
    const int d = q_->cols();
    // Keys index K/V, whose row count differs from q's in the decode-step
    // path (one query row against the compact K/V layout).
    const int nn = k_->rows();
    const std::int8_t* qbase = q_->data().data();
    const std::int8_t* kbase = k_->data().data();
    const std::uint8_t* valid = tile.valid.data();

    // Worst-case keys in one row: the full column budget (window) or the
    // whole key stream (global row); reserve once, then use raw pointers.
    const int stream_len = tile.total_stream_length();
    const std::size_t max_keys =
        static_cast<std::size_t>(std::max(cols, stream_len) + 1);
    if (scratch.scores.size() < max_keys) {
        scratch.scores.resize(max_keys);
        scratch.keys.resize(max_keys);
    }
    ScoreRaw* scores = scratch.scores.data();
    int* keys = scratch.keys.data();

    auto emit = [&](int query, int count) {
        build_part_into(*exp_unit_, *recip_unit_, *v_, query, scores, keys, count,
                        activity, arena, scratch);
    };

    // PE-array rows: the window part of the pattern. Keys are gathered
    // first, then the whole row's dots run in one batched kernel call (the
    // widened query row stays in registers across the row's K vectors).
    for (int r = 0; r < rows; ++r) {
        const int qi = tile.query_ids[static_cast<std::size_t>(r)];
        int count = 0;
        if (qi >= 0) {
            const std::uint8_t* vrow = valid + static_cast<std::size_t>(r) *
                                                   static_cast<std::size_t>(cols);
            for (const TileSegment& seg : tile.segments) {
                std::int64_t key = seg.key_base +
                                   static_cast<std::int64_t>(r) * seg.dilation;
                for (int c = seg.col_begin; c < seg.col_end;
                     ++c, key += seg.dilation) {
                    if (vrow[c] == 0) continue;
                    SALO_ASSERT(key >= 0 && key < nn);
                    keys[count++] = static_cast<int>(key);
                }
            }
            kernels::dot_i8_rows(qbase + static_cast<std::size_t>(qi) *
                                             static_cast<std::size_t>(d),
                                 kbase, keys, count, d, scores);
            activity.mac_ops += static_cast<std::int64_t>(count) * d;
        }
        if (count > 0) emit(qi, count);

        // Global PE column: q_i against the global key (single-element part:
        // its normalized output is v_g itself, with weight exp(q_i . k_g)).
        if (tile.global_col_key >= 0 && !tile.global_col_rows.empty() &&
            tile.global_col_rows[static_cast<std::size_t>(r)] != 0) {
            SALO_ASSERT(qi >= 0);
            const int g = tile.global_col_key;
            scores[0] = kernels::dot_i8(
                qbase + static_cast<std::size_t>(qi) * static_cast<std::size_t>(d),
                kbase + static_cast<std::size_t>(g) * static_cast<std::size_t>(d), d);
            keys[0] = g;
            activity.mac_ops += d;
            emit(qi, 1);
        }
    }

    // Global PE row: the global query against this tile's fresh keys.
    if (tile.global_row_query >= 0) {
        const int g = tile.global_row_query;
        int count = 0;
        int slot = 0;
        for (const TileSegment& seg : tile.segments) {
            const int len = seg.stream_length(rows);
            std::int64_t key = seg.key_base;
            for (int s = 0; s < len; ++s, ++slot, key += seg.dilation) {
                if (tile.global_fresh[static_cast<std::size_t>(slot)] == 0) continue;
                SALO_ASSERT(key >= 0 && key < nn);
                keys[count++] = static_cast<int>(key);
            }
        }
        if (count > 0) {
            kernels::dot_i8_rows(qbase + static_cast<std::size_t>(g) *
                                             static_cast<std::size_t>(d),
                                 kbase, keys, count, d, scores);
            activity.mac_ops += static_cast<std::int64_t>(count) * d;
            emit(g, count);
        }
    }

    activity.valid_slots += tile.num_valid_slots();
    activity.array_slots += static_cast<std::int64_t>(rows) * cols;
}

}  // namespace salo
