#include "attention/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "numeric/quantize.hpp"
#include "pattern/pattern.hpp"

namespace salo {
namespace {

class StreamingBlockSize : public ::testing::TestWithParam<int> {};

TEST_P(StreamingBlockSize, EqualsBatchMaskedAttention) {
    // The renormalization identity (paper Eq. 2 / Appendix A): streaming
    // over any block size equals the one-shot masked softmax.
    Rng rng(17);
    const int n = 48;
    const int d = 16;
    const auto q = random_matrix(n, d, rng);
    const auto k = random_matrix(n, d, rng);
    const auto v = random_matrix(n, d, rng);
    const auto pattern = longformer(n, 8, 1);
    const auto batch = masked_attention(q, k, v, 0.25f, pattern.attend_fn());
    const auto streamed = streaming_masked_attention(q, k, v, 0.25f,
                                                     pattern.attend_fn(), GetParam());
    EXPECT_LT(max_abs_diff(batch, streamed), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, StreamingBlockSize,
                         ::testing::Values(1, 3, 8, 17, 48, 100));

TEST(Streaming, DenseMaskMatchesDenseAttention) {
    Rng rng(18);
    const auto q = random_matrix(24, 8, rng);
    const auto k = random_matrix(24, 8, rng);
    const auto v = random_matrix(24, 8, rng);
    const auto dense = dense_attention(q, k, v, 0.35f);
    const auto streamed = streaming_masked_attention(
        q, k, v, 0.35f, [](int, int) { return true; }, 7);
    EXPECT_LT(max_abs_diff(dense, streamed), 1e-5);
}

TEST(Streaming, EmptyRowsStayZero) {
    Rng rng(19);
    const auto q = random_matrix(8, 4, rng);
    const auto k = random_matrix(8, 4, rng);
    const auto v = random_matrix(8, 4, rng);
    const auto out = streaming_masked_attention(
        q, k, v, 1.0f, [](int i, int) { return i != 2; }, 3);
    for (int t = 0; t < 4; ++t) EXPECT_FLOAT_EQ(out(2, t), 0.0f);
}

TEST(Streaming, StableUnderLargeScores) {
    // Online max-rebasing keeps exp() in range even for huge scores.
    Matrix<float> q(2, 2, 0.0f), k(4, 2, 0.0f), v(4, 2, 0.0f);
    q(0, 0) = 40.0f;
    q(1, 0) = -40.0f;
    for (int j = 0; j < 4; ++j) {
        k(j, 0) = static_cast<float>(j - 1);
        v(j, 1) = static_cast<float>(j);
    }
    const auto out = streaming_masked_attention(
        q, k, v, 1.0f, [](int, int) { return true; }, 2);
    for (float x : out.data()) EXPECT_TRUE(std::isfinite(x));
    // Row 0's softmax concentrates on the largest key (j=3).
    EXPECT_NEAR(out(0, 1), 3.0f, 1e-3);
    // Row 1 concentrates on the smallest (j=0).
    EXPECT_NEAR(out(1, 1), 0.0f, 1e-3);
}

TEST(Streaming, RejectsBadBlockSize) {
    Matrix<float> m(2, 2);
    EXPECT_THROW(streaming_masked_attention(m, m, m, 1.0f,
                                            [](int, int) { return true; }, 0),
                 ContractViolation);
}

// ---------------------------------------------------------------------------
// DecodeState: the per-stream running K/V of autoregressive decode. Each
// test drives the state against the plain row store it abstracts (append
// all rows, keep everything) and checks the retention contract at the
// edges: ring eviction at the window boundary, global pinning at the very
// first step and long after eviction, and dilated windows whose reachable
// keys straddle the ring.
// ---------------------------------------------------------------------------

Matrix<float> state_row(const Tensor3<float>& all, int p, int heads, int d) {
    Matrix<float> row(heads, d, 0.0f);
    for (int h = 0; h < heads; ++h)
        for (int x = 0; x < d; ++x) row(h, x) = all[h](p, x);
    return row;
}

TEST(DecodeState, WindowBoundaryEvictionKeepsExactlyTheLastSpanRows) {
    Rng rng(23);
    const int heads = 2, d = 4, span = 4, steps = 7;
    const auto k_all = random_tensor3(heads, steps, d, rng);
    const auto v_all = random_tensor3(heads, steps, d, rng);
    DecodeState state(heads, d, span, {});
    for (int p = 0; p < steps; ++p) {
        state.append(state_row(k_all, p, heads, d), state_row(v_all, p, heads, d));
        EXPECT_EQ(state.length(), p + 1);
        EXPECT_EQ(state.window_lo(), std::max(0, p + 1 - span));
        EXPECT_EQ(state.compact_rows(), std::min(p + 1, span));
    }
    // Positions below window_lo are gone — the append overwrote their slot.
    for (int j = 0; j < state.window_lo(); ++j)
        EXPECT_THROW(state.compact_index(j), ContractViolation);
    // The surviving window is bit-identical to the rows as appended.
    const auto [k_c, v_c] = state.assemble();
    for (int j = state.window_lo(); j < steps; ++j) {
        const int idx = state.compact_index(j);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) {
                EXPECT_EQ(k_c[h](idx, x), k_all[h](j, x));
                EXPECT_EQ(v_c[h](idx, x), v_all[h](j, x));
            }
    }
}

TEST(DecodeState, QuantizedAssemblyReusesCallerBuffers) {
    // Once the ring is full the compact shape is fixed: every step writes
    // the same caller-kept buffers, whose contents equal quantizing
    // assemble().
    Rng rng(29);
    const int heads = 2, d = 8, span = 5, steps = 12;
    const auto k_all = random_tensor3(heads, steps, d, rng);
    const auto v_all = random_tensor3(heads, steps, d, rng);
    DecodeState state(heads, d, span, {1});
    const std::int8_t* k_data = nullptr;
    Tensor3<std::int8_t> kq, vq;
    for (int p = 0; p < steps; ++p) {
        state.append(state_row(k_all, p, heads, d), state_row(v_all, p, heads, d));
        state.assemble_quantized(kq, vq);
        const auto [kc, vc] = state.assemble();
        ASSERT_EQ(kq.rows(), state.compact_rows());
        for (int h = 0; h < heads; ++h) {
            EXPECT_EQ(kq[h], quantize<InputFx>(kc[h]));
            EXPECT_EQ(vq[h], quantize<InputFx>(vc[h]));
        }
        if (p == span) k_data = kq[0].data().data();
        if (p > span) EXPECT_EQ(kq[0].data().data(), k_data);
    }
}

TEST(DecodeState, QuantizedAssemblyReshapesBuffersForAnotherHeadDim) {
    // One buffer pair serving states of two head dims at equal compact row
    // counts (as a thread's step buffers serve every stream it runs) is
    // reshaped on the column count alone: never overrun, never rejected.
    Rng rng(31);
    const int heads = 2, span = 4, steps = 9;
    DecodeState narrow(heads, 8, span, {0});
    DecodeState wide(heads, 16, span, {0});
    Tensor3<std::int8_t> kq, vq;
    for (int p = 0; p < steps; ++p) {
        for (DecodeState* state : {&narrow, &wide}) {
            const int d = state->head_dim();
            state->append(random_matrix(heads, d, rng), random_matrix(heads, d, rng));
        }
        ASSERT_EQ(narrow.compact_rows(), wide.compact_rows());
        for (const DecodeState* state : {&wide, &narrow, &wide, &narrow}) {
            state->assemble_quantized(kq, vq);
            ASSERT_EQ(kq.rows(), state->compact_rows());
            ASSERT_EQ(kq.cols(), state->head_dim());
            ASSERT_EQ(vq.cols(), state->head_dim());
            const auto [kc, vc] = state->assemble();
            for (int h = 0; h < heads; ++h) {
                EXPECT_EQ(kq[h], quantize<InputFx>(kc[h]));
                EXPECT_EQ(vq[h], quantize<InputFx>(vc[h]));
            }
        }
    }
}

TEST(DecodeState, GlobalTokenAtStepOneIsPinnedAndRingResident) {
    // Step 1 edge: position 0 is global; right after the first append it is
    // both pinned and inside the ring, and the two copies are identical.
    Rng rng(29);
    const int heads = 1, d = 4, span = 3;
    const auto k_all = random_tensor3(heads, 1, d, rng);
    const auto v_all = random_tensor3(heads, 1, d, rng);
    DecodeState state(heads, d, span, {0});
    state.append(state_row(k_all, 0, heads, d), state_row(v_all, 0, heads, d));
    EXPECT_EQ(state.num_pinned(), 1);
    EXPECT_EQ(state.compact_rows(), 2);  // pinned copy + ring copy
    const auto [k_c, v_c] = state.assemble();
    for (int x = 0; x < d; ++x) {
        EXPECT_EQ(k_c[0](0, x), k_all[0](0, x));  // pinned section
        EXPECT_EQ(k_c[0](1, x), k_all[0](0, x));  // ring section
        EXPECT_EQ(v_c[0](0, x), v_all[0](0, x));
        EXPECT_EQ(v_c[0](1, x), v_all[0](0, x));
    }
}

TEST(DecodeState, GlobalTokenSurvivesRingEvictionAtStepN) {
    // Step n edge: long after position 0 left the ring, its pinned copy
    // still serves compact_index(0) with the original bits.
    Rng rng(31);
    const int heads = 2, d = 4, span = 3, steps = 9;
    const auto k_all = random_tensor3(heads, steps, d, rng);
    const auto v_all = random_tensor3(heads, steps, d, rng);
    DecodeState state(heads, d, span, {0});
    for (int p = 0; p < steps; ++p)
        state.append(state_row(k_all, p, heads, d), state_row(v_all, p, heads, d));
    ASSERT_GT(state.window_lo(), 0);  // 0 was evicted from the ring
    const int idx = state.compact_index(0);
    EXPECT_LT(idx, state.num_pinned());
    const auto [k_c, v_c] = state.assemble();
    for (int h = 0; h < heads; ++h)
        for (int x = 0; x < d; ++x) {
            EXPECT_EQ(k_c[h](idx, x), k_all[h](0, x));
            EXPECT_EQ(v_c[h](idx, x), v_all[h](0, x));
        }
    // A non-global evicted position still throws.
    EXPECT_THROW(state.compact_index(1), ContractViolation);
}

TEST(DecodeState, DilatedWindowKeysAreAllRetainedAtEveryStep) {
    // Band {-6, 4, dilation 2}: row t attends t-6, t-4, t-2, t — span 7.
    // At every step, every key the pattern's own attend_fn references must
    // be resolvable through the state with the bits that were appended.
    Rng rng(37);
    const int heads = 1, d = 4, steps = 12;
    const std::vector<Band> bands = {Band{-6, 4, 2, 0}};
    const int span = decode_window_span(bands);
    ASSERT_EQ(span, 7);
    const HybridPattern pattern(steps, bands);
    const auto attends = pattern.attend_fn();
    const auto k_all = random_tensor3(heads, steps, d, rng);
    const auto v_all = random_tensor3(heads, steps, d, rng);
    DecodeState state(heads, d, span, {});
    for (int t = 0; t < steps; ++t) {
        state.append(state_row(k_all, t, heads, d), state_row(v_all, t, heads, d));
        const auto [k_c, v_c] = state.assemble();
        for (int j = 0; j <= t; ++j) {
            if (!attends(t, j)) continue;
            const int idx = state.compact_index(j);
            for (int x = 0; x < d; ++x) {
                EXPECT_EQ(k_c[0](idx, x), k_all[0](j, x));
                EXPECT_EQ(v_c[0](idx, x), v_all[0](j, x));
            }
        }
    }
}

TEST(DecodeState, CompactAttentionMatchesFullPrefixOracle) {
    // End-to-end float check: masked attention of the newest row computed
    // over the compact layout (keys remapped via compact_index) equals the
    // same computation over the full prefix — the identity the micro-plan
    // execution path relies on, here at float precision with the streaming
    // oracle's own operations.
    Rng rng(41);
    const int d = 6, steps = 10;
    const std::vector<Band> bands = {Band{-3, 4, 1, 0}};
    const int span = decode_window_span(bands);
    const HybridPattern pattern(steps, bands, {1});
    const auto attends = pattern.attend_fn();
    const auto q_all = random_matrix(steps, d, rng);
    const auto k_all = random_matrix(steps, d, rng);
    const auto v_all = random_matrix(steps, d, rng);
    DecodeState state(1, d, span, {1});
    for (int t = 0; t < steps; ++t) {
        Matrix<float> k_row(1, d, 0.0f), v_row(1, d, 0.0f);
        for (int x = 0; x < d; ++x) {
            k_row(0, x) = k_all(t, x);
            v_row(0, x) = v_all(t, x);
        }
        state.append(k_row, v_row);

        // Oracle: row t of masked attention over the full length-(t+1) prefix.
        Matrix<float> qp(t + 1, d, 0.0f), kp(t + 1, d, 0.0f), vp(t + 1, d, 0.0f);
        for (int r = 0; r <= t; ++r)
            for (int x = 0; x < d; ++x) {
                qp(r, x) = q_all(r, x);
                kp(r, x) = k_all(r, x);
                vp(r, x) = v_all(r, x);
            }
        const auto full = masked_attention(qp, kp, vp, 0.4f, attends);

        // Same computation against the compact rows: a 1-row query whose
        // mask routes through compact_index.
        const auto [k_c, v_c] = state.assemble();
        Matrix<float> q1(1, d, 0.0f), kc(state.compact_rows(), d, 0.0f),
            vc(state.compact_rows(), d, 0.0f);
        for (int x = 0; x < d; ++x) q1(0, x) = q_all(t, x);
        for (int r = 0; r < state.compact_rows(); ++r)
            for (int x = 0; x < d; ++x) {
                kc(r, x) = k_c[0](r, x);
                vc(r, x) = v_c[0](r, x);
            }
        std::vector<char> live(static_cast<std::size_t>(state.compact_rows()), 0);
        for (int j = 0; j <= t; ++j)
            if (attends(t, j)) live[static_cast<std::size_t>(state.compact_index(j))] = 1;
        const auto compact = masked_attention(
            q1, kc, vc, 0.4f,
            [&](int, int j) { return live[static_cast<std::size_t>(j)] != 0; });
        for (int x = 0; x < d; ++x) EXPECT_FLOAT_EQ(compact(0, x), full(t, x));
    }
}

}  // namespace
}  // namespace salo
