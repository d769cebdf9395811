// Host identity recorded in the benchmark snapshots (BENCH_*.json), so a
// number is only ever compared with numbers from the same kind of host.
#pragma once

#include <fstream>
#include <string>

namespace salo::bench {

/// The host's CPU model string ("unknown" without /proc/cpuinfo).
inline std::string cpu_model() {
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

}  // namespace salo::bench
