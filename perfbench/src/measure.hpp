// Measurement primitives of the repo benchmark: percentiles that refuse to
// report a tail the sample cannot support, spans with self-time
// arithmetic, the open-loop arrival schedule with due-time latency
// stamping, bit-exact output comparison, and the metric record every
// workload fills in.
//
// Everything here is independent of the SALO library except the
// comparison helpers, so the arithmetic can be tested in isolation
// (tests/perfbench_tests.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Samples a percentile must leave beyond it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// One percentile of a sample, with the counts that justify it.
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0;  ///< sample size
    std::size_t beyond = 0;   ///< samples strictly above the percentile's rank
};

/// Number of samples ranked above percentile `p` (0 < p < 100) of `n`.
inline std::size_t samples_beyond(std::size_t n, double p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return n > rank ? n - rank : 0;
}

/// Nearest-rank percentile `p` of `values`, or nullopt when fewer than
/// kMinBeyond samples lie beyond it (a p99 needs at least 1000 samples).
inline std::optional<Percentile> percentile(std::vector<double> values, double p) {
    Percentile out;
    out.samples = values.size();
    out.beyond = samples_beyond(values.size(), p);
    if (values.empty() || out.beyond < kMinBeyond) return std::nullopt;
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                     values.end());
    out.value = values[idx];
    return out;
}

/// Median of a non-empty sample, without the tail rule (setup repetitions
/// and per-run medians are small samples whose centre is all we need).
inline double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    const double hi = values[mid];
    if (values.size() % 2 == 1) return hi;
    const double lo = *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lo + hi);
}

inline double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double s = 0.0;
    for (double v : values) s += v;
    return s / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced call into a layer. Times are nanoseconds since the tracer's
/// epoch; `parent` is the index of the enclosing span (-1 for a root) and
/// `unit` the request, step or pass the span belongs to. Names are string
/// literals, so recording a span allocates nothing.
struct Span {
    std::string_view name;
    int parent = -1;
    std::int64_t unit = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder. Thread-safe: the open-loop generator and the
/// completion waiters record into one tracer. Spans are written out only
/// after the run (see write_trace in the workloads).
class Tracer {
public:
    Tracer() : epoch_(Clock::now()) {}

    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
            .count();
    }
    std::int64_t ns_of(Clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
    }

    /// Record a finished span; returns its index (usable as a parent).
    int record(std::string_view name, int parent, std::int64_t unit, std::int64_t start_ns,
               std::int64_t end_ns) {
        std::lock_guard<std::mutex> lock(m_);
        spans_.push_back(Span{name, parent, unit, start_ns, end_ns});
        return static_cast<int>(spans_.size()) - 1;
    }

    /// Open a span now; close it with close(). The parent must be open or
    /// closed already, so indices stay valid.
    int open(std::string_view name, int parent, std::int64_t unit) {
        return record(name, parent, unit, now_ns(), 0);
    }
    void close(int span) {
        const std::int64_t t = now_ns();
        std::lock_guard<std::mutex> lock(m_);
        spans_[static_cast<std::size_t>(span)].end_ns = t;
    }

    /// Snapshot of every span recorded so far.
    std::vector<Span> spans() const {
        std::lock_guard<std::mutex> lock(m_);
        return spans_;
    }

private:
    Clock::time_point epoch_;
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers (children may overlap, and
/// may stick out of the parent; only the overlap with the parent counts).
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start_ns);
            hi = std::min(hi, s.end_ns);
            if (hi <= lo) continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open) covered += cur_hi - cur_lo;
        self[i] = s.duration_ns() - covered;
    }
    return self;
}

/// Sum of the self times of every span called `name`, in milliseconds.
inline double total_self_ms(const std::vector<Span>& spans,
                            const std::vector<std::int64_t>& self, std::string_view name) {
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name) ns += self[i];
    return static_cast<double>(ns) / 1e6;
}

/// Self times of every span called `name`, in microseconds (one value per span).
inline std::vector<double> self_us_of(const std::vector<Span>& spans,
                                      const std::vector<std::int64_t>& self,
                                      std::string_view name) {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name) out.push_back(static_cast<double>(self[i]) / 1e3);
    return out;
}

// ---------------------------------------------------------------------------
// Open-loop arrivals
// ---------------------------------------------------------------------------

/// Offsets (seconds from the start) of `count` Poisson arrivals over
/// [0, span_s): a Poisson process conditioned on its count is `count`
/// sorted uniform points, so the offered rate is exact and only the
/// placement depends on the seed.
inline std::vector<double> poisson_offsets(std::uint64_t seed, std::size_t count,
                                           double span_s) {
    salo::Rng rng(seed);
    std::vector<double> t(count);
    for (double& x : t) x = rng.uniform(0.0, span_s);
    std::sort(t.begin(), t.end());
    return t;
}

/// Timeline of one open-loop request. Latency counts from when the request
/// was due, so a stalled generator charges its delay to every request it
/// held back; the lag is how late the generator sent it.
struct Stamp {
    Clock::time_point due{};
    Clock::time_point sent{};
    Clock::time_point done{};

    double latency_ms() const { return ms_between(due, done); }
    double lag_ms() const { return std::max(0.0, ms_between(due, sent)); }
};

// ---------------------------------------------------------------------------
// Output verification
// ---------------------------------------------------------------------------

inline bool bit_equal(const salo::Matrix<float>& a, const salo::Matrix<float>& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

inline bool bit_equal(const salo::Tensor3<float>& a, const salo::Tensor3<float>& b) {
    if (a.count() != b.count()) return false;
    for (int h = 0; h < a.count(); ++h)
        if (!bit_equal(a[h], b[h])) return false;
    return true;
}

inline bool stats_equal(const salo::SimStats& a, const salo::SimStats& b) {
    for (int s = 0; s < 5; ++s)
        if (a.stage_totals.stage[s] != b.stage_totals.stage[s]) return false;
    return a.cycles == b.cycles && a.tiles == b.tiles &&
           a.activity.mac_ops == b.activity.mac_ops &&
           a.activity.exp_ops == b.activity.exp_ops &&
           a.activity.valid_slots == b.activity.valid_slots &&
           a.activity.array_slots == b.activity.array_slots &&
           a.activity.pe_cycles == b.activity.pe_cycles;
}

// ---------------------------------------------------------------------------
// Result record
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< values the number summarizes
    std::string note;         ///< how it was derived, where not obvious
};

/// What one workload run reports: counts for the result line, metrics, and
/// free-form facts (rates, limits, percentile sources) for the record.
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;      ///< failed, rejected, timed out, cancelled, evicted or wrong
    std::uint64_t mismatches = 0;  ///< wrong outputs (also counted in failed)
    bool invariants_ok = true;     ///< conservation laws and replay fidelity
    std::vector<std::string> problems;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> facts;

    bool correct() const { return mismatches == 0 && invariants_ok; }

    void add(std::string name, double value, std::string unit, std::size_t samples,
             std::string note = {}) {
        metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                                 std::move(note)});
    }
    void fact(std::string key, std::string value) {
        facts.emplace_back(std::move(key), std::move(value));
    }
    void problem(std::string what) {
        problems.push_back(std::move(what));
        invariants_ok = false;
    }
};

/// Percentile `p` of `values`. When fewer than kMinBeyond samples lie
/// beyond it, the sample maximum instead — an upper bound on the
/// percentile — with `note` saying so (empty otherwise).
inline double percentile_or_max(const std::vector<double>& values, double p,
                                std::string& note) {
    note.clear();
    if (const auto got = percentile(values, p)) return got->value;
    note = "sample maximum: p" + std::to_string(static_cast<int>(p)) + " unsupported (" +
           std::to_string(samples_beyond(values.size(), p)) + " samples beyond it, " +
           std::to_string(kMinBeyond) + " needed)";
    return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

/// Add percentile_or_max(values, p) as metric `name`.
inline void add_percentile(RunResult& r, const std::string& name,
                           const std::vector<double>& values, double p,
                           const std::string& unit) {
    std::string note;
    const double v = percentile_or_max(values, p, note);
    r.add(name, v, unit, values.size(), note);
}

}  // namespace perfbench
