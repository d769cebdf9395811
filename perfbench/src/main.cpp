// perfbench: the repo benchmark's measuring program.
//
//   perfbench --workload <encode-paper|decode-stream|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload through the library's public API and prints one JSON
// record as its last line: provenance, counts, and every metric the run
// measured with unit, sample count and derivation. Exit code 1 when an
// output mismatched or an invariant (conservation law, replay fidelity)
// broke, 2 on a usage error. perfbench/run.py builds this program and turns
// the record into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "sim/kernels.hpp"

namespace {

using namespace perfbench;

std::string json_str(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int usage(const char* why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <encode-paper|decode-stream|serve-mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                opt.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
                opt.trace = v == "1";
            } else if (a == "--out-dir") {
                opt.out_dir = v;
            } else {
                return usage(("unknown flag " + a).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (!have_workload) return usage("--workload is required");
    if (opt.seconds == 0.0) return usage("--seconds is required");
    if (!(opt.seconds > 0.0 && opt.seconds <= 60.0)) return usage("--seconds must be in (0, 60]");

    RunResult r;
    const HostTicks ticks0 = host_ticks();
    try {
        if (opt.workload == "encode-paper") {
            r = run_encode_paper(opt);
        } else if (opt.workload == "decode-stream") {
            r = run_decode_stream(opt);
        } else if (opt.workload == "serve-mixed") {
            r = run_serve_mixed(opt);
        } else {
            return usage(("unknown workload " + opt.workload).c_str());
        }
    } catch (const std::exception& ex) {
        std::cerr << "perfbench: " << opt.workload << " aborted: " << ex.what() << "\n";
        return 1;
    }

    const HostTicks ticks1 = host_ticks();
    const double steal_share =
        ticks1.total > ticks0.total
            ? static_cast<double>(ticks1.steal - ticks0.steal) /
                  static_cast<double>(ticks1.total - ticks0.total)
            : 0.0;

    std::ostringstream out;
    out << "{\"workload\":" << json_str(opt.workload) << ",\"seed\":" << opt.seed
        << ",\"seconds\":" << json_num(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
        << ",\"provenance\":{\"isa\":" << json_str(salo::kernels::isa_name())
        << ",\"hardware_threads\":" << hardware_threads()
        << ",\"cpu_model\":" << json_str(cpu_model())
        << ",\"compiler\":" << json_str(std::string("g++ ") + __VERSION__)
        << ",\"host_steal_share\":" << json_num(steal_share) << "}"
        << ",\"correct\":" << (r.correct() ? "true" : "false")
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"mismatches\":" << r.mismatches << ",\"problems\":[";
    for (std::size_t i = 0; i < r.problems.size(); ++i)
        out << (i ? "," : "") << json_str(r.problems[i]);
    out << "],\"facts\":{";
    for (std::size_t i = 0; i < r.facts.size(); ++i)
        out << (i ? "," : "") << json_str(r.facts[i].first) << ":" << json_str(r.facts[i].second);
    out << "},\"metrics\":{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        out << (i ? "," : "") << json_str(m.name) << ":{\"value\":" << json_num(m.value)
            << ",\"unit\":" << json_str(m.unit) << ",\"samples\":" << m.samples;
        if (!m.note.empty()) out << ",\"note\":" << json_str(m.note);
        out << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return r.correct() ? 0 : 1;
}
