#include "sim/wsm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "numeric/datapath.hpp"

namespace salo {
namespace {

constexpr double kExpScale = 1 << Datapath::exp_frac;
constexpr double kWsmScale = 1 << Datapath::wsm_frac;

TilePart make_part(int query, double weight, const std::vector<double>& out) {
    TilePart part;
    part.query = query;
    part.weight = static_cast<SumRaw>(std::llround(weight * kExpScale));
    for (double v : out)
        part.out_q.push_back(static_cast<std::int32_t>(std::llround(v * kWsmScale)));
    return part;
}

TEST(WeightedSum, SinglePartPassesThrough) {
    const Reciprocal recip;
    WeightedSumModule wsm(4, 2, recip);
    wsm.merge(make_part(1, 3.0, {0.5, -1.25}));
    const Matrix<float> out = wsm.finalize();
    EXPECT_NEAR(out(1, 0), 0.5, 1e-2);
    EXPECT_NEAR(out(1, 1), -1.25, 1e-2);
    // Untouched queries stay zero.
    EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out(3, 1), 0.0f);
}

TEST(WeightedSum, EqualWeightsAverage) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 2.0, {1.0}));
    wsm.merge(make_part(0, 2.0, {3.0}));
    EXPECT_NEAR(wsm.finalize()(0, 0), 2.0, 1e-2);
}

TEST(WeightedSum, Equation2TwoParts) {
    // Paper Eq. 2: out = W1/(W1+W2)*out1 + W2/(W1+W2)*out2.
    const Reciprocal recip;
    WeightedSumModule wsm(1, 3, recip);
    const double w1 = 5.0, w2 = 1.5;
    const std::vector<double> o1 = {1.0, -2.0, 0.25};
    const std::vector<double> o2 = {-1.0, 4.0, 0.75};
    wsm.merge(make_part(0, w1, o1));
    wsm.merge(make_part(0, w2, o2));
    const Matrix<float> out = wsm.finalize();
    for (int t = 0; t < 3; ++t) {
        const double expected =
            (w1 * o1[static_cast<std::size_t>(t)] + w2 * o2[static_cast<std::size_t>(t)]) /
            (w1 + w2);
        EXPECT_NEAR(out(0, t), expected, 2e-2) << "t=" << t;
    }
}

TEST(WeightedSum, ManyPartsMatchAppendixAFormula) {
    // Appendix A: out = sum_k (W_k / W) * out_k for any number of parts.
    const Reciprocal recip;
    Rng rng(11);
    const int parts = 16;
    const int d = 4;
    WeightedSumModule wsm(1, d, recip);
    double total_w = 0.0;
    std::vector<double> expected(static_cast<std::size_t>(d), 0.0);
    for (int p = 0; p < parts; ++p) {
        const double w = rng.uniform(0.25, 8.0);
        std::vector<double> o;
        for (int t = 0; t < d; ++t) o.push_back(rng.uniform(-3.0, 3.0));
        wsm.merge(make_part(0, w, o));
        total_w += w;
        for (int t = 0; t < d; ++t)
            expected[static_cast<std::size_t>(t)] += w * o[static_cast<std::size_t>(t)];
    }
    const Matrix<float> out = wsm.finalize();
    for (int t = 0; t < d; ++t)
        EXPECT_NEAR(out(0, t), expected[static_cast<std::size_t>(t)] / total_w, 0.05)
            << "t=" << t;
}

TEST(WeightedSum, MergeOrderInsensitiveWithinTolerance) {
    // Eq. 2 is mathematically associative; fixed-point rounding may differ
    // slightly but results must agree to output resolution.
    const Reciprocal recip;
    std::vector<TilePart> parts;
    Rng rng(5);
    for (int p = 0; p < 6; ++p)
        parts.push_back(make_part(0, rng.uniform(0.5, 4.0),
                                  {rng.uniform(-2, 2), rng.uniform(-2, 2)}));
    WeightedSumModule fwd(1, 2, recip), rev(1, 2, recip);
    for (const auto& p : parts) fwd.merge(p);
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) rev.merge(*it);
    EXPECT_LT(max_abs_diff(fwd.finalize(), rev.finalize()), 0.03);
}

TEST(WeightedSum, ZeroWeightPartIgnored) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 1.0, {2.0}));
    TilePart zero = make_part(0, 0.0, {99.0});
    wsm.merge(zero);
    EXPECT_NEAR(wsm.finalize()(0, 0), 2.0, 1e-2);
    EXPECT_EQ(wsm.merges(), 1);
}

TEST(WeightedSum, DominantWeightWins) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 1000.0, {1.0}));
    wsm.merge(make_part(0, 0.001, {-1.0}));
    EXPECT_NEAR(wsm.finalize()(0, 0), 1.0, 1e-2);
}

TEST(WeightedSum, RejectsBadPart) {
    const Reciprocal recip;
    WeightedSumModule wsm(2, 2, recip);
    TilePart bad = make_part(5, 1.0, {0.0, 0.0});  // query out of range
    EXPECT_THROW(wsm.merge(bad), ContractViolation);
    TilePart wrong_d = make_part(0, 1.0, {0.0});  // dimension mismatch
    EXPECT_THROW(wsm.merge(wrong_d), ContractViolation);
}

TEST(WeightedSum, FinalizeRawIs16Bit) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 1.0, {3.141}));
    const Matrix<std::int16_t> raw = wsm.finalize_raw();
    EXPECT_NEAR(static_cast<double>(raw(0, 0)) / 256.0, 3.141, 1e-2);
}

TEST(WeightedSum, ResetModuleMatchesAFreshOne) {
    // A reset module (reused per thread by decode steps) carries nothing
    // over: same bits as a fresh module, also for a changed shape.
    const Reciprocal recip;
    WeightedSumModule reused(3, 2, recip);
    reused.merge(make_part(2, 5.0, {1.5, 0.25}));
    reused.reset(1, 3, recip);
    WeightedSumModule fresh(1, 3, recip);
    for (WeightedSumModule* wsm : {&reused, &fresh}) {
        wsm->merge(make_part(0, 2.0, {0.5, -0.75, 1.0}));
        wsm->merge(make_part(0, 1.0, {-0.25, 0.125, 2.0}));
    }
    EXPECT_EQ(reused.merges(), 2);
    const Matrix<float> want = fresh.finalize();
    Matrix<float> got(1, 3, 7.0f);
    reused.finalize_into(got);
    for (int t = 0; t < 3; ++t) EXPECT_EQ(got(0, t), want(0, t));
}

}  // namespace
}  // namespace salo
