// Serving quickstart: the compile -> cache -> submit lifecycle.
//
// Builds a SaloSession, compiles two heterogeneous workloads (a 1D
// Longformer slice and a 2D ViL grid), fires a mixed stream of asynchronous
// requests at the session, and shows that
//   * futures resolve as requests are served,
//   * every result is bit-identical to the synchronous engine run,
//   * the PlanCache compiled each distinct shape exactly once.
#include <future>
#include <iostream>
#include <vector>

#include "core/salo.hpp"
#include "workload/workloads.hpp"

int main() {
    using namespace salo;

    SaloConfig config;  // functional fidelity, hardware-threads lanes
    SaloSession session(config);

    // Two request shapes a mixed NLP + vision deployment would serve.
    AttentionWorkload longf = longformer_small(256, 32, 4, 64, 1);
    AttentionWorkload vil = vil_stage2();
    vil.pattern = vil_2d(14, 14, 7, 7, 1);  // scaled-down grid for the demo
    vil.heads = 2;
    vil.window = 7 * 7;

    const CompiledPlanPtr longf_plan = session.compile(longf.pattern, longf.head_dim);
    const CompiledPlanPtr vil_plan = session.compile(vil.pattern, vil.head_dim);

    std::cout << "=== SaloSession serving demo ===\n"
              << "Longformer plan: " << longf_plan->schedule_stats().total_tiles()
              << " tiles;  ViL plan: " << vil_plan->schedule_stats().total_tiles()
              << " tiles\n\n";

    // A burst of 12 interleaved requests, submitted before any completes.
    const int kRequests = 12;
    std::vector<std::future<LayerResult>> futures;
    std::vector<const AttentionWorkload*> kinds;
    for (int i = 0; i < kRequests; ++i) {
        const bool is_longformer = i % 2 == 0;
        const AttentionWorkload& w = is_longformer ? longf : vil;
        const CompiledPlanPtr& plan = is_longformer ? longf_plan : vil_plan;
        const QkvSet qkv = make_qkv(w, /*seed=*/100 + i);
        futures.push_back(session.submit(plan, qkv.q, qkv.k, qkv.v, w.scale()));
        kinds.push_back(&w);
    }

    // Await all futures and spot-check against the synchronous engine.
    const SaloEngine& engine = session.engine();
    double worst = 0.0;
    for (int i = 0; i < kRequests; ++i) {
        const LayerResult served = futures[static_cast<std::size_t>(i)].get();
        const AttentionWorkload& w = *kinds[static_cast<std::size_t>(i)];
        const QkvSet qkv = make_qkv(w, /*seed=*/100 + i);
        const LayerResult sync =
            engine.run(*engine.compile(w.pattern, w.head_dim), qkv.q, qkv.k, qkv.v, w.scale());
        for (int h = 0; h < served.output.count(); ++h)
            worst = std::max(worst, max_abs_diff(served.output[h], sync.output[h]));
    }

    session.drain();  // stats readers synchronize on drain()
    const SessionStats stats = session.stats();
    std::cout << "requests served      : " << stats.completed << " in " << stats.batches
              << " batches (largest " << stats.max_batch << ")\n"
              << "plan-cache hit rate  : " << stats.plan_cache.hits << "/"
              << (stats.plan_cache.hits + stats.plan_cache.misses) << " lookups\n"
              << "max |session - sync| : " << worst << "  (0 = bit-identical)\n";
    return worst == 0.0 ? 0 : 1;
}
