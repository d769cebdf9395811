#include "attention/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "sim/kernels.hpp"

namespace salo {

// ---------------------------------------------------------------------------
// DecodeState
// ---------------------------------------------------------------------------

DecodeState::DecodeState(int heads, int head_dim, int window_span,
                         std::vector<int> global_tokens)
    : heads_(heads), head_dim_(head_dim), span_(window_span),
      globals_(std::move(global_tokens)) {
    SALO_EXPECTS(heads_ >= 1);
    SALO_EXPECTS(head_dim_ >= 1);
    SALO_EXPECTS(span_ >= 1);
    std::sort(globals_.begin(), globals_.end());
    globals_.erase(std::unique(globals_.begin(), globals_.end()), globals_.end());
    for (int g : globals_) SALO_EXPECTS(g >= 0);
    const auto init = [&](auto& rows) {
        rows.ring.resize(static_cast<std::size_t>(heads_));
        rows.pin.resize(static_cast<std::size_t>(heads_));
        // Capacity only: the memory is touched as rows arrive.
        for (auto& ring : rows.ring)
            ring.reserve(static_cast<std::size_t>(span_) * static_cast<std::size_t>(head_dim_));
    };
    init(k_);
    init(v_);
    init(kq_);
    init(vq_);
}

int DecodeState::window_lo() const { return std::max(0, length_ - span_); }

int DecodeState::num_pinned() const {
    return static_cast<int>(std::lower_bound(globals_.begin(), globals_.end(), length_) -
                            globals_.begin());
}

int DecodeState::compact_rows() const { return num_pinned() + (length_ - window_lo()); }

template <typename T>
void DecodeState::store(RowStore<T>& rows, const Matrix<float>& row, bool is_global) {
    const auto slot = static_cast<std::size_t>(length_ % span_);  // overwriting = eviction
    const auto d = static_cast<std::size_t>(head_dim_);
    const auto convert = [](std::span<const float> src, T* dst) {
        if constexpr (std::is_same_v<T, float>)
            std::ranges::copy(src, dst);
        else
            kernels::quantize_input(src.data(), src.size(), 1.0f, dst);
    };
    for (int h = 0; h < heads_; ++h) {
        const std::span<const float> src = row.row(h);
        std::vector<T>& ring = rows.ring[static_cast<std::size_t>(h)];
        if (length_ < span_) ring.resize(ring.size() + d);  // within the reserved capacity
        convert(src, ring.data() + slot * d);
        // Globals arrive in ascending order, so pins append in order too.
        if (!is_global) continue;
        std::vector<T>& pin = rows.pin[static_cast<std::size_t>(h)];
        pin.resize(pin.size() + d);
        convert(src, pin.data() + pin.size() - d);
    }
}

void DecodeState::append(const Matrix<float>& k_row, const Matrix<float>& v_row) {
    SALO_EXPECTS(k_row.rows() == heads_ && k_row.cols() == head_dim_);
    SALO_EXPECTS(v_row.rows() == heads_ && v_row.cols() == head_dim_);
    const bool is_global = std::binary_search(globals_.begin(), globals_.end(), length_);
    store(k_, k_row, is_global);
    store(v_, v_row, is_global);
    // Quantization is elementwise: these are the bits quantize<InputFx>
    // gives for the same rows.
    store(kq_, k_row, is_global);
    store(vq_, v_row, is_global);
    ++length_;
}

int DecodeState::compact_index(int j) const {
    SALO_EXPECTS(j >= 0 && j < length_);
    if (j >= window_lo()) return num_pinned() + (j - window_lo());
    // Evicted from the ring: only a pinned global survives.
    const auto pin = std::lower_bound(globals_.begin(), globals_.end(), j);
    SALO_EXPECTS(pin != globals_.end() && *pin == j);
    return static_cast<int>(pin - globals_.begin());
}

template <typename T>
void DecodeState::assemble_rows(const RowStore<T>& rows, Tensor3<T>& out) const {
    const int np = num_pinned();
    const int lo = window_lo();
    // The window lo..L-1 is at most two contiguous slot runs: from slot
    // lo % span up to the end of the ring, then wrapped around from slot 0.
    const int live = length_ - lo;
    const int first = lo % span_;
    const int run1 = std::min(live, span_ - first);
    const auto d = static_cast<std::size_t>(head_dim_);
    // Compare the whole shape: one buffer may serve states of other shapes.
    if (out.count() != heads_ || out.rows() != np + live || out.cols() != head_dim_)
        out = Tensor3<T>(heads_, np + live, head_dim_);
    for (int h = 0; h < heads_; ++h) {
        T* dst = out[h].data().data();
        const auto copy_rows = [&](const std::vector<T>& from, int row, int count) {
            if (count == 0) return;  // `from` may not be allocated yet
            const std::size_t n = static_cast<std::size_t>(count) * d;
            std::memcpy(dst, from.data() + static_cast<std::size_t>(row) * d, n * sizeof(T));
            dst += n;
        };
        copy_rows(rows.pin[static_cast<std::size_t>(h)], 0, np);
        copy_rows(rows.ring[static_cast<std::size_t>(h)], first, run1);
        copy_rows(rows.ring[static_cast<std::size_t>(h)], 0, live - run1);
    }
}

std::pair<Tensor3<float>, Tensor3<float>> DecodeState::assemble() const {
    std::pair<Tensor3<float>, Tensor3<float>> out;
    assemble_rows(k_, out.first);
    assemble_rows(v_, out.second);
    return out;
}

std::pair<Tensor3<std::int8_t>, Tensor3<std::int8_t>> DecodeState::assemble_quantized()
    const {
    std::pair<Tensor3<std::int8_t>, Tensor3<std::int8_t>> out;
    assemble_quantized(out.first, out.second);
    return out;
}

void DecodeState::assemble_quantized(Tensor3<std::int8_t>& k,
                                     Tensor3<std::int8_t>& v) const {
    assemble_rows(kq_, k);
    assemble_rows(vq_, v);
}

Matrix<float> streaming_masked_attention(const Matrix<float>& q, const Matrix<float>& k,
                                         const Matrix<float>& v, float scale,
                                         const AttendFn& attends, int block_size) {
    SALO_EXPECTS(q.cols() == k.cols());
    SALO_EXPECTS(k.rows() == v.rows());
    SALO_EXPECTS(block_size >= 1);
    const int n = q.rows();
    const int m = k.rows();
    const int d = v.cols();
    const int dk = q.cols();

    // Running state per query: max score, total weight, unnormalized-by-
    // weight output (i.e. the normalized output of everything seen so far).
    // The outputs live in one flat n*d buffer — one allocation, contiguous
    // per-query rows — instead of n separate heap vectors.
    std::vector<double> run_max(static_cast<std::size_t>(n),
                                -std::numeric_limits<double>::infinity());
    std::vector<double> run_weight(static_cast<std::size_t>(n), 0.0);
    std::vector<double> run_out(static_cast<std::size_t>(n) * static_cast<std::size_t>(d),
                                0.0);

    std::vector<double> scores;
    std::vector<int> cols;
    std::vector<double> out_block(static_cast<std::size_t>(d));
    for (int b0 = 0; b0 < m; b0 += block_size) {
        const int b1 = std::min(m, b0 + block_size);
        for (int i = 0; i < n; ++i) {
            scores.clear();
            cols.clear();
            double block_max = -std::numeric_limits<double>::infinity();
            const float* qi = q.row(i).data();
            for (int j = b0; j < b1; ++j) {
                if (!attends(i, j)) continue;
                const float* kj = k.row(j).data();
                double dot = 0.0;
                for (int t = 0; t < dk; ++t) dot += static_cast<double>(qi[t]) * kj[t];
                dot *= scale;
                scores.push_back(dot);
                cols.push_back(j);
                block_max = std::max(block_max, dot);
            }
            if (cols.empty()) continue;

            // Block-local softmax parts (weight W_b and normalized out_b).
            double w_block = 0.0;
            std::fill(out_block.begin(), out_block.end(), 0.0);
            for (std::size_t s = 0; s < cols.size(); ++s) {
                const double e = std::exp(scores[s] - block_max);
                w_block += e;
                const float* vr = v.row(cols[s]).data();
                for (int t = 0; t < d; ++t)
                    out_block[static_cast<std::size_t>(t)] += e * static_cast<double>(vr[t]);
            }
            for (double& x : out_block) x /= w_block;

            // Merge with the running state (Eq. 2 with max rebasing).
            double* out = run_out.data() + static_cast<std::size_t>(i) *
                                               static_cast<std::size_t>(d);
            double& w_run = run_weight[static_cast<std::size_t>(i)];
            double& m_run = run_max[static_cast<std::size_t>(i)];
            const double new_max = std::max(m_run, block_max);
            const double w_prev = w_run * std::exp(m_run - new_max);
            const double w_new = w_block * std::exp(block_max - new_max);
            const double w_total = w_prev + w_new;
            for (int t = 0; t < d; ++t)
                out[t] = (w_prev * out[t] + w_new * out_block[static_cast<std::size_t>(t)]) /
                         w_total;
            w_run = w_total;
            m_run = new_max;
        }
    }

    Matrix<float> result(n, d, 0.0f);
    for (int i = 0; i < n; ++i) {
        if (run_weight[static_cast<std::size_t>(i)] <= 0.0) continue;
        const double* out = run_out.data() + static_cast<std::size_t>(i) *
                                                 static_cast<std::size_t>(d);
        for (int t = 0; t < d; ++t) result(i, t) = static_cast<float>(out[t]);
    }
    return result;
}

}  // namespace salo
