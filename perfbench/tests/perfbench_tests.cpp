// Tests of the benchmark's own arithmetic and checks.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "workload/workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) v.push_back(i);
    return v;
}

TEST(Percentile, RefusesWithoutTenSamplesBeyond) {
    // p99 of 999 samples leaves 9 beyond it; 1000 samples leave 10.
    EXPECT_FALSE(percentile(ramp(999), 99.0).has_value());
    const auto p = percentile(ramp(1000), 99.0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->value, 990.0);
    EXPECT_EQ(p->samples, 1000u);
    EXPECT_EQ(p->beyond, 10u);
    EXPECT_FALSE(percentile(ramp(19), 50.0).has_value());
    EXPECT_TRUE(percentile(ramp(20), 50.0).has_value());
    EXPECT_FALSE(percentile({}, 50.0).has_value());
}

TEST(Percentile, UnsupportedTailReportsMaximumWithCounts) {
    RunResult r;
    add_percentile(r, "latency_ms_p99", ramp(500), 99.0, "ms");
    ASSERT_EQ(r.metrics.size(), 1u);
    EXPECT_EQ(r.metrics[0].value, 500.0);
    EXPECT_EQ(r.metrics[0].samples, 500u);
    EXPECT_NE(r.metrics[0].note.find("unsupported"), std::string::npos);

    RunResult ok;
    add_percentile(ok, "latency_ms_p99", ramp(2000), 99.0, "ms");
    EXPECT_EQ(ok.metrics[0].value, 1980.0);
    EXPECT_TRUE(ok.metrics[0].note.empty());
}

TEST(OpenLoop, LatencyStampedFromDueTimeAndLagComputed) {
    const Clock::time_point t0 = Clock::now();
    Stamp late;
    late.due = t0;
    late.sent = t0 + std::chrono::milliseconds(30);  // generator ran 30 ms late
    late.done = t0 + std::chrono::milliseconds(50);
    EXPECT_DOUBLE_EQ(late.latency_ms(), 50.0);  // not done - sent = 20 ms
    EXPECT_DOUBLE_EQ(late.lag_ms(), 30.0);

    Stamp early;
    early.due = t0;
    early.sent = t0 - std::chrono::milliseconds(1);
    early.done = t0 + std::chrono::milliseconds(5);
    EXPECT_DOUBLE_EQ(early.lag_ms(), 0.0);
    EXPECT_DOUBLE_EQ(early.latency_ms(), 5.0);
}

TEST(OpenLoop, PoissonOffsetsAreSeededSortedAndExactCount) {
    const auto a = poisson_offsets(7, 1200, 10.0);
    const auto b = poisson_offsets(7, 1200, 10.0);
    const auto c = poisson_offsets(8, 1200, 10.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_EQ(a.size(), 1200u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GE(a.front(), 0.0);
    EXPECT_LT(a.back(), 10.0);
}

TEST(SetUp, KeepsOneSetUpAliveAndReportsTheMedian) {
    struct Probe {
        static int& live() {
            static int n = 0;
            return n;
        }
        std::unique_ptr<int> token;
        Probe() = default;
        explicit Probe(int id) : token(std::make_unique<int>(id)) { ++live(); }
        Probe(Probe&& o) noexcept : token(std::move(o.token)) {}
        Probe& operator=(Probe&& o) noexcept {
            if (token) --live();
            token = std::move(o.token);
            return *this;
        }
        ~Probe() {
            if (token) --live();
        }
    };
    int made = 0;
    int most_alive = 0;
    double setup_s = -1.0;
    std::size_t reps = 0;
    const Probe kept = timed_set_up(
        [&] {
            most_alive = std::max(most_alive, Probe::live());
            return Probe(++made);
        },
        setup_s, reps);
    EXPECT_GE(reps, kSetupMinReps);
    EXPECT_EQ(static_cast<std::size_t>(made), reps);
    EXPECT_EQ(*kept.token, made);  // the last set-up is the one kept
    EXPECT_EQ(most_alive, 0);            // the previous one was gone first
    EXPECT_GE(setup_s, 0.0);
    EXPECT_LT(setup_s, 1.0);
}

TEST(Spans, SelfTimeSubtractsUnionOfDirectChildren) {
    std::vector<Span> spans = {
        {"root", -1, 0, 0, 100},  // 0
        {"a", 0, 0, 10, 30},      // 1
        {"b", 0, 0, 20, 50},      // 2: overlaps a -> union [10, 50)
        {"c", 2, 0, 25, 35},      // 3: grandchild, only b's self time shrinks
        {"d", 0, 0, 90, 120},     // 4: sticks out of root; only [90, 100) counts
    };
    const auto self = self_times_ns(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30 - 10);
    EXPECT_EQ(self[3], 10);
    EXPECT_EQ(self[4], 30);
    EXPECT_DOUBLE_EQ(total_self_ms(spans, self, "root"), 50e-6);
}

TEST(Spans, TracerRecordsParentsAndUnits) {
    Tracer tr;
    const int outer = tr.open("outer", -1, 7);
    const int inner = tr.open("inner", outer, 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tr.close(inner);
    tr.close(outer);
    const auto spans = tr.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].unit, 7);
    const auto self = self_times_ns(spans);
    EXPECT_GE(self[1], 2'000'000);
    EXPECT_LT(self[0], spans[0].duration_ns());
}

TEST(Verification, PerturbedOutputFails) {
    using namespace salo;
    const AttentionWorkload w = longformer_small(64, 16, 2, 16, 1);
    const QkvSet in = make_qkv(w, 3);
    const SaloEngine engine{SaloConfig{}};
    RunOptions one;
    one.thread_budget = 1;
    const CompiledPlanPtr plan = engine.compile(w.pattern, w.head_dim);
    const LayerResult ref = engine.run(*plan, in.q, in.k, in.v, w.scale(), one);
    LayerResult again = engine.run(*plan, in.q, in.k, in.v, w.scale(), RunOptions{});
    EXPECT_TRUE(bit_equal(again.output, ref.output));
    EXPECT_TRUE(stats_equal(again.stats, ref.stats));

    LayerResult bad = again;
    float& x = bad.output[1](5, 3);
    x = std::nextafter(x, 1e9f);  // one ulp
    EXPECT_FALSE(bit_equal(bad.output, ref.output));

    LayerResult bad_stats = again;
    ++bad_stats.stats.activity.exp_ops;
    EXPECT_FALSE(stats_equal(bad_stats.stats, ref.stats));
}

}  // namespace
}  // namespace perfbench
