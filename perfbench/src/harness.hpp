// Shared plumbing of the benchmark's workloads: run options, host
// provenance, process resource readings, setup timing and trace output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;  ///< length of the measured window; required
    bool trace = false;
    std::string out_dir;  ///< where trace files go (inside the build directory)
};

/// Fixed per workload and recorded in every result, so a later run is
/// judged the same way.
struct Targets {
    /// Units slower than this do not count toward goodput_rps.
    double latency_limit_ms = 0.0;
    /// The percentile latency_ms_tail reports: p99 where a run of the
    /// workload leaves at least kMinBeyond samples beyond it, else the
    /// highest round percentile that does.
    double tail_percentile = 99.0;
};

/// CPU seconds of all threads of this process so far (the process CPU
/// clock). Time the hypervisor gives to other guests (steal) is not in it.
double process_cpu_s();
/// CPU seconds of the calling thread so far.
double thread_cpu_s();

/// Set-up is repeated for at least kSetupMinSeconds and at least
/// kSetupMinReps times; setup_s is the median CPU time of one set-up.
inline constexpr double kSetupMinSeconds = 1.0;
inline constexpr std::size_t kSetupMinReps = 9;

/// Run `make()` back to back as above and return the last result. Each
/// earlier result is destroyed before the next set-up starts, so one lives
/// at a time. `setup_s` receives the median process CPU seconds of one
/// set-up and `reps` the number of set-ups; destruction is not timed.
template <typename Make>
auto timed_set_up(Make&& make, double& setup_s, std::size_t& reps) {
    std::vector<double> durations;
    decltype(make()) kept{};
    const auto t_end = Clock::now() + std::chrono::duration<double>(kSetupMinSeconds);
    while (durations.size() < kSetupMinReps || Clock::now() < t_end) {
        kept = {};
        const double cpu0 = process_cpu_s();
        kept = make();
        durations.push_back(process_cpu_s() - cpu0);
    }
    setup_s = median(durations);
    reps = durations.size();
    return kept;
}

/// Reset the process's peak resident set size to its current size, so
/// peak_rss_mb() covers only what follows (the benchmark's references and
/// inputs built before stay counted as resident, not as their build-time
/// peak). Returns false where the kernel does not support it.
bool reset_peak_rss();
/// Peak resident set size of this process since the last reset_peak_rss(),
/// in MiB (VmHWM).
double peak_rss_mb();
/// Host-wide CPU time in clock ticks from /proc/stat: the time the
/// hypervisor ran other guests on this machine's CPUs (steal), and all of
/// it. Both 0 when unavailable.
struct HostTicks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};
HostTicks host_ticks();
/// The host's CPU model string ("unknown" when unavailable).
std::string cpu_model();
/// Hardware threads the process may use.
int hardware_threads();

/// A sub-seed for input stream `index` of a run seeded with `seed`.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
    salo::Rng rng(seed * 0x9e3779b97f4a7c15ull + index);
    return rng.next_u64();
}

/// Write the spans as CSV (index, parent, name, unit, start_ns, end_ns)
/// to `path`; returns false on an I/O error.
bool write_trace(const std::string& path, const std::vector<Span>& spans);

/// The end-to-end metrics of one measured window.
struct EndToEnd {
    std::vector<double> latency_ms;  ///< one per correctly completed unit
    std::uint64_t positions = 0;     ///< sequence positions completed
    std::uint64_t within_limit = 0;  ///< units completed within the latency limit
    double busy_s = 0.0;             ///< time the throughput metrics divide by
    double cpu_s = 0.0;              ///< process CPU seconds spent in the library
    double cycles_per_token = 0.0;
    double setup_s = 0.0;
    std::size_t setup_reps = 0;
    bool peak_reset = false;         ///< reset_peak_rss() succeeded before the window
};
void add_end_to_end(RunResult& r, const EndToEnd& e, const Targets& targets);

/// CPU utilization of the whole process over a window: CPU / (wall x
/// hardware threads).
struct CpuWindow {
    double cpu0 = process_cpu_s();
    Clock::time_point wall0 = Clock::now();

    double utilization() const {
        const double wall = ms_between(wall0, Clock::now()) / 1e3;
        return wall <= 0.0 ? 0.0
                           : (process_cpu_s() - cpu0) / (wall * hardware_threads());
    }
};

RunResult run_encode_paper(const Options& opt);
RunResult run_decode_stream(const Options& opt);
RunResult run_serve_mixed(const Options& opt);

}  // namespace perfbench
