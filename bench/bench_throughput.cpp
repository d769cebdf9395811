// End-to-end functional-simulation throughput: the seed's sequential scalar
// path vs the overhauled engine (SIMD kernels, arena parts, persistent
// worker pool with head-level parallelism).
//
// The baseline configuration (`seed_reference_1t`) runs the original
// datapath loops preserved behind SaloConfig::reference_datapath on one
// thread — the seed's execution path. The optimized engine runs at 1 and 8
// threads and at the host's hardware thread count (`optimized_hw`). Every
// configuration is verified to produce bit-identical outputs and identical
// simulation statistics before any number is reported.
//
//   bench_throughput [--quick] [--heads N] [--json <path>]
//   bench_throughput --sweep [--heads N]
//
// --json writes a machine-readable snapshot (the BENCH_throughput.json
// trajectory at the repo root, with the host's ISA, thread count and CPU
// model); wired up as the CMake target `bench_throughput_json`.
//
// --sweep is the thread-scaling check of docs/PERFORMANCE.md: the optimized
// engine at 1, 2, 4 and 8 threads, best of 3 each, with the process CPU
// time of that run and the wall-time speedup over 1 thread (exit code 1
// only on a bit-identity mismatch).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/salo.hpp"
#include "host.hpp"
#include "sim/kernels.hpp"
#include "workload/workloads.hpp"

namespace {

using salo::AttentionWorkload;
using salo::LayerResult;
using salo::QkvSet;
using salo::SaloConfig;
using salo::SaloEngine;

/// One run's wall time and the process CPU time (all threads) it took.
struct Timing {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
};

/// Timings of `reps` runs of one engine, sorted by ascending wall time.
std::vector<Timing> times_ms(const SaloConfig& config, const AttentionWorkload& w,
                             const QkvSet& qkv, int reps, LayerResult* out) {
    // One engine for all reps: the persistent pool and its arenas are
    // steady-state across calls, which is exactly what we want to measure.
    const SaloEngine engine(config);
    std::vector<Timing> times;
    times.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const std::clock_t c0 = std::clock();
        const auto t0 = std::chrono::steady_clock::now();
        LayerResult r = engine.run(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
        const auto t1 = std::chrono::steady_clock::now();
        const std::clock_t c1 = std::clock();
        times.push_back({std::chrono::duration<double, std::milli>(t1 - t0).count(),
                         1000.0 * static_cast<double>(c1 - c0) / CLOCKS_PER_SEC});
        if (out) *out = std::move(r);
    }
    std::sort(times.begin(), times.end(),
              [](const Timing& a, const Timing& b) { return a.wall_ms < b.wall_ms; });
    return times;
}

double median_ms(const SaloConfig& config, const AttentionWorkload& w, const QkvSet& qkv,
                 int reps, LayerResult* out) {
    const std::vector<Timing> times = times_ms(config, w, qkv, reps, out);
    return times[times.size() / 2].wall_ms;
}

bool identical(const LayerResult& a, const LayerResult& b) {
    if (a.stats.cycles != b.stats.cycles || a.stats.tiles != b.stats.tiles)
        return false;
    for (int s = 0; s < 5; ++s)
        if (a.stats.stage_totals.stage[s] != b.stats.stage_totals.stage[s]) return false;
    const salo::ActivityStats& aa = a.stats.activity;
    const salo::ActivityStats& ba = b.stats.activity;
    if (aa.mac_ops != ba.mac_ops || aa.exp_ops != ba.exp_ops ||
        aa.valid_slots != ba.valid_slots || aa.array_slots != ba.array_slots ||
        aa.pe_cycles != ba.pe_cycles)
        return false;
    for (int h = 0; h < a.output.count(); ++h)
        if (salo::max_abs_diff(a.output[h], b.output[h]) != 0.0) return false;
    return true;
}

/// --sweep: best of 3 at 1, 2, 4 and 8 threads (wall, and the process CPU of
/// that run), wall-time speedups over 1 thread.
int run_sweep(const AttentionWorkload& w, const QkvSet& qkv) {
    std::printf("workload: Longformer-4096, %d heads, d=%d (functional fidelity)\n",
                w.heads, w.head_dim);
    std::printf("kernel ISA: %s, hardware threads: %d, CPU: %s, best of 3\n\n",
                salo::kernels::isa_name(), salo::default_num_threads(),
                salo::bench::cpu_model().c_str());
    LayerResult base;
    double base_ms = 0.0;
    bool bit_identical = true;
    for (int threads : {1, 2, 4, 8}) {
        SaloConfig config;
        config.num_threads = threads;
        LayerResult r;
        const Timing best = times_ms(config, w, qkv, 3, &r).front();
        const double ms = best.wall_ms;
        if (threads == 1) {
            base = std::move(r);
            base_ms = ms;
        } else {
            bit_identical = bit_identical && identical(base, r);
        }
        std::printf("%d thread%s %9.1f ms wall %9.1f ms CPU   (%.2fx vs 1 thread)\n",
                    threads, threads == 1 ? " " : "s", ms, best.cpu_ms, base_ms / ms);
    }
    std::printf("\nbit-identical outputs + stats across thread counts: %s\n",
                bit_identical ? "yes" : "NO — BUG");
    return bit_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool sweep = false;
    int heads_override = 0;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        else if (std::strcmp(argv[i], "--sweep") == 0) sweep = true;
        else if (std::strcmp(argv[i], "--heads") == 0 && i + 1 < argc)
            heads_override = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::cerr << "usage: bench_throughput [--quick] [--heads N] [--json path]\n"
                         "       bench_throughput --sweep [--heads N]\n";
            return 2;
        }
    }

    AttentionWorkload w = salo::longformer_base_4096();
    if (heads_override > 0) w.heads = heads_override;
    else if (quick) w.heads = 2;
    const int reps = quick ? 1 : 3;
    const QkvSet qkv = salo::make_qkv(w, 42);
    if (sweep) return run_sweep(w, qkv);

    SaloConfig seed_cfg;
    seed_cfg.num_threads = 1;
    seed_cfg.reference_datapath = true;
    SaloConfig opt1_cfg;
    opt1_cfg.num_threads = 1;
    SaloConfig opt8_cfg;
    opt8_cfg.num_threads = 8;
    SaloConfig opthw_cfg;
    opthw_cfg.num_threads = salo::default_num_threads();

    std::printf("workload: Longformer-4096, %d heads, d=%d (functional fidelity)\n",
                w.heads, w.head_dim);
    std::printf("kernel ISA: %s, hardware threads: %d, CPU: %s, reps: %d (median)\n\n",
                salo::kernels::isa_name(), salo::default_num_threads(),
                salo::bench::cpu_model().c_str(), reps);

    LayerResult r_seed, r_opt1, r_opt8, r_opthw;
    const double seed_ms = median_ms(seed_cfg, w, qkv, reps, &r_seed);
    std::printf("%-24s %9.1f ms\n", "seed_reference_1t", seed_ms);
    const double opt1_ms = median_ms(opt1_cfg, w, qkv, reps, &r_opt1);
    std::printf("%-24s %9.1f ms   (%.2fx)\n", "optimized_1t", opt1_ms, seed_ms / opt1_ms);
    const double opt8_ms = median_ms(opt8_cfg, w, qkv, reps, &r_opt8);
    std::printf("%-24s %9.1f ms   (%.2fx)\n", "optimized_8t", opt8_ms, seed_ms / opt8_ms);
    const double opthw_ms = median_ms(opthw_cfg, w, qkv, reps, &r_opthw);
    std::printf("%-24s %9.1f ms   (%.2fx)\n", "optimized_hw", opthw_ms, seed_ms / opthw_ms);

    const bool bit_identical = identical(r_seed, r_opt1) && identical(r_seed, r_opt8) &&
                               identical(r_seed, r_opthw);
    std::printf("\nbit-identical outputs + stats across all configs: %s\n",
                bit_identical ? "yes" : "NO — BUG");
    std::printf("layer cycles: %lld, tiles: %lld\n",
                static_cast<long long>(r_seed.stats.cycles),
                static_cast<long long>(r_seed.stats.tiles));

    if (!json_path.empty()) {
        char date[32] = "unknown";
        const std::time_t now = std::time(nullptr);
        std::strftime(date, sizeof date, "%Y-%m-%d", std::gmtime(&now));
        std::ofstream os(json_path);
        os << "{\n"
           << "  \"bench\": \"throughput\",\n"
           << "  \"schema_version\": 1,\n"
           << "  \"date\": \"" << date << "\",\n"
           << "  \"workload\": \"longformer-base-4096\",\n"
           << "  \"n\": " << w.n() << ",\n"
           << "  \"heads\": " << w.heads << ",\n"
           << "  \"head_dim\": " << w.head_dim << ",\n"
           << "  \"fidelity\": \"functional\",\n"
           << "  \"kernel_isa\": \"" << salo::kernels::isa_name() << "\",\n"
           << "  \"hardware_threads\": " << salo::default_num_threads() << ",\n"
           << "  \"cpu_model\": \"" << salo::bench::cpu_model() << "\",\n"
           << "  \"reps\": " << reps << ",\n"
           << "  \"seed_reference_1t_ms\": " << seed_ms << ",\n"
           << "  \"optimized_1t_ms\": " << opt1_ms << ",\n"
           << "  \"optimized_8t_ms\": " << opt8_ms << ",\n"
           << "  \"optimized_hw_ms\": " << opthw_ms << ",\n"
           << "  \"speedup_1t_vs_seed\": " << seed_ms / opt1_ms << ",\n"
           << "  \"speedup_8t_vs_seed\": " << seed_ms / opt8_ms << ",\n"
           << "  \"bit_identical\": " << (bit_identical ? "true" : "false") << ",\n"
           << "  \"layer_cycles\": " << r_seed.stats.cycles << "\n"
           << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    return bit_identical ? 0 : 1;
}
