// Streaming (online-softmax) attention reference, and the per-stream
// running K/V state of autoregressive decode.
//
// streaming_masked_attention computes masked attention in one pass over key
// blocks, maintaining a running (max, weight, output) triple per query and
// renormalizing on the fly — the same mathematics as SALO's window
// splitting + weighted-sum module (paper §4.2/Appendix A), and of
// FlashAttention-style kernels. Serves as an independent float oracle for
// the renormalization identity: for any block size the result must equal
// ordinary masked attention.
//
// DecodeState is the stateful sibling: it holds exactly the K/V rows a
// causal sliding-window + global pattern can still reference — a ring
// buffer of the last `window_span` positions plus pinned copies of the
// global tokens — so one decode step appends one row and assembles a
// compact K/V whose size is bounded by the pattern, not the prefix length.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "attention/golden.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor3.hpp"

namespace salo {

/// Masked attention computed over key blocks of `block_size`, merging each
/// block's partial softmax into the running result via the Eq. 2 / online
/// renormalization. block_size >= 1; block_size >= n reduces to one pass.
Matrix<float> streaming_masked_attention(const Matrix<float>& q, const Matrix<float>& k,
                                         const Matrix<float>& v, float scale,
                                         const AttendFn& attends, int block_size);

/// Per-stream K/V running state for causal streaming decode.
///
/// Retention contract: after append()ing positions 0..L-1, the state can
/// reproduce every key/value row a causal band set with
/// decode_window_span(bands) == window_span, plus the given global tokens,
/// may reference at step L-1 or any later step:
///
///   * the *ring* keeps the last window_span positions; appending position
///     p overwrites slot p % window_span — that overwrite IS the
///     window-boundary eviction, no separate pass;
///   * every global position is additionally *pinned* on append, so it
///     survives ring eviction forever.
///
/// assemble() lays the live rows out compactly as
///   [pinned globals, ascending] [ring window window_lo()..L-1]
/// which is the key-space the step micro-plan (core/compiled_plan.hpp)
/// is rewritten against. A global inside the current window appears in
/// both sections; the copies are bit-identical, so either reference
/// produces the same result.
///
/// Every row is also quantized once, at append(), into an int8 ring and
/// int8 pins next to the float ones; assemble_quantized() lays those out
/// the same way for the accelerator datapath. Quantization is elementwise,
/// so these are exactly the bits quantize<InputFx>(assemble()) would give,
/// without requantizing the whole window on every step. The float copies
/// stay for golden fidelity and float callers.
class DecodeState {
public:
    /// `global_tokens` are absolute positions (sorted + deduplicated here);
    /// they must all be < n of any pattern this state serves, but may be
    /// anywhere relative to window_span — pinning keeps evicted globals.
    DecodeState(int heads, int head_dim, int window_span, std::vector<int> global_tokens);

    int heads() const { return heads_; }
    int head_dim() const { return head_dim_; }
    int window_span() const { return span_; }
    const std::vector<int>& global_tokens() const { return globals_; }

    /// Number of positions appended so far (the prefix length L).
    int length() const { return length_; }
    /// First position still in the ring: max(0, L - window_span).
    int window_lo() const;
    /// Globals already appended: #{g in global_tokens : g < L}.
    int num_pinned() const;
    /// Rows assemble() produces: num_pinned() + (L - window_lo()).
    int compact_rows() const;

    /// Append position L's key/value rows (one row per head; k_row and
    /// v_row are heads x head_dim). Overwrites ring slot L % window_span
    /// and pins the row if L is a global token.
    void append(const Matrix<float>& k_row, const Matrix<float>& v_row);

    /// Compact-row index of absolute key position j as seen by the *latest*
    /// step: ring rows for j >= window_lo(), pinned rows for evicted
    /// globals. j must be a retained position (ContractViolation otherwise).
    int compact_index(int j) const;

    /// Materialize the compact K/V: [heads][compact_rows()][head_dim].
    std::pair<Tensor3<float>, Tensor3<float>> assemble() const;

    /// The same layout of the rows quantized at append() (InputFx raw).
    std::pair<Tensor3<std::int8_t>, Tensor3<std::int8_t>> assemble_quantized() const;

    /// assemble_quantized() into `k` and `v`, reshaped only when their
    /// shape differs from [heads][compact_rows()][head_dim]. A caller that keeps one pair per thread
    /// assembles with no allocation once the ring is full, and many
    /// streams share a few cache-hot buffers.
    void assemble_quantized(Tensor3<std::int8_t>& k, Tensor3<std::int8_t>& v) const;

private:
    /// One element type's retained rows, per head, head_dim wide and
    /// row-major: the ring (slot = p % window_span; filled by append up to
    /// window_span slots, so an unused stream touches no ring memory) and
    /// the pinned globals in ascending order.
    template <typename T>
    struct RowStore {
        std::vector<std::vector<T>> ring;
        std::vector<std::vector<T>> pin;
    };

    /// Write position length()'s rows (heads x head_dim) into `rows`,
    /// quantized to InputFx raw when T is int8.
    template <typename T>
    void store(RowStore<T>& rows, const Matrix<float>& row, bool is_global);

    /// Copy the live rows of `rows` into the compact layout in `out`,
    /// reshaping it only when the row count changed.
    template <typename T>
    void assemble_rows(const RowStore<T>& rows, Tensor3<T>& out) const;

    int heads_;
    int head_dim_;
    int span_;
    std::vector<int> globals_;
    int length_ = 0;
    RowStore<float> k_, v_;
    RowStore<std::int8_t> kq_, vq_;  ///< the same rows, quantized at append
};

}  // namespace salo
