#include "harness.hpp"

#include <sys/resource.h>

#include <ctime>
#include <fstream>
#include <thread>

namespace perfbench {

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool reset_peak_rss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";  // 5: reset the peak RSS to the current RSS
    out.flush();
    return static_cast<bool>(out);
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

HostTicks host_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    HostTicks t;
    if (cpu != "cpu") return t;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(in >> v)) return HostTicks{};
        t.total += v;
        if (field == 7) t.steal = v;
    }
    return t;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos) break;
        const auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "unknown" : line.substr(first);
    }
    return "unknown";
}

int hardware_threads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
}

bool write_trace(const std::string& path, const std::vector<Span>& spans) {
    std::ofstream out(path);
    out << "index,parent,name,unit,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << i << ',' << s.parent << ',' << s.name << ',' << s.unit << ',' << s.start_ns
            << ',' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
}

void add_end_to_end(RunResult& r, const EndToEnd& e, const Targets& targets) {
    const std::size_t n = e.latency_ms.size();
    r.add("cpu_ms_per_token",
          e.positions > 0 ? e.cpu_s * 1e3 / static_cast<double>(e.positions) : 0.0, "ms", n,
          "process CPU time spent in library calls per position completed");
    r.add("tokens_per_s", e.busy_s > 0.0 ? static_cast<double>(e.positions) / e.busy_s : 0.0,
          "tok/s", n);
    r.add("latency_ms_p50", median(e.latency_ms), "ms", n);
    std::string tail_name = "p";
    tail_name += std::to_string(static_cast<int>(targets.tail_percentile));
    std::string how;
    const double tail = percentile_or_max(e.latency_ms, targets.tail_percentile, how);
    r.add("latency_ms_tail", tail, "ms", n, how.empty() ? tail_name : tail_name + ": " + how);
    r.fact("tail_percentile", tail_name);
    r.add("goodput_rps", e.busy_s > 0.0 ? static_cast<double>(e.within_limit) / e.busy_s : 0.0,
          "1/s", n, "units within " + std::to_string(targets.latency_limit_ms) + " ms per second");
    r.add("success_rate",
          r.attempted == 0 ? 0.0
                           : static_cast<double>(r.attempted - r.failed) /
                                 static_cast<double>(r.attempted),
          "ratio", r.attempted, "1 - error_rate");
    r.add("sim_cycles_per_token", e.cycles_per_token, "cycles/tok", n);
    r.add("setup_s", e.setup_s, "s", e.setup_reps,
          "median process CPU time of back-to-back set-ups");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1,
          e.peak_reset ? "VmHWM, reset after the references were built"
                       : "VmHWM of the whole process (peak reset unsupported)");
    r.fact("latency_limit_ms", std::to_string(targets.latency_limit_ms));
    r.fact("error_rate", r.attempted == 0 ? "0"
                                          : std::to_string(static_cast<double>(r.failed) /
                                                           static_cast<double>(r.attempted)));
}

}  // namespace perfbench
