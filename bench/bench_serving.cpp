// Request-serving throughput and latency: a mixed Longformer + ViL stream
// through SaloSession vs the same requests run one-shot on the synchronous
// engine.
//
// The stream interleaves three request shapes (an NLP Longformer slice and
// two ViL 2D grids), pre-generates every Q/K/V, then fires the whole burst
// at the session and measures
//   * wall-clock throughput (requests/s),
//   * per-request latency submit -> future-ready (p50 / p99),
//   * the PlanCache hit rate (3 distinct shapes in the whole stream),
//   * bit-identity of every served result against the sequential run.
//
//   bench_serving [--quick] [--requests N] [--seed S] [--overload]
//                 [--shards N] [--chaos] [--sweep-shards]
//                 [--tenants [K]] [--noisy] [--sweep-tenants] [--json <path>]
//
// --overload adds the overload experiment (docs/PERFORMANCE.md): the same
// stream re-fired as a 10x burst — paced arrivals at ten times the measured
// sequential service rate — with a seeded mix of interactive/batch
// priorities and per-request deadlines, against a bounded reject-fast
// admission policy. Reported: shed rate, goodput, and p50/p99 over the
// *admitted* requests; the acceptance bar is admitted-p99 within 2x the
// non-overloaded p99. --seed controls the priority/deadline draw and is
// recorded in the JSON.
//
// --shards N serves the same stream through a ShardedSession of N engine
// shards; --chaos turns the run into the seeded chaos soak (docs/
// RELIABILITY.md): one seeded shard faults ~5% of its tiles until it
// "heals" (exercising quarantine, half-open probing, and reintegration),
// 1 in 10 requests carries a one-shot transient fault (exercising retry
// and failover), and 1 in 20 wedges briefly at a tile boundary. The exit
// code enforces the tier invariants: zero lost futures, every completed
// result bit-identical to the sequential engine, the stats conservation
// law, at least one retry actually exercised, and completed p99 under 3x
// the same-shard-count healthy tier's p99.
//
// --sweep-shards additionally records a 1/2/4-shard x healthy/chaos sweep
// (correctness invariants enforced; latencies informational).
//
// --tenants [K] runs the tenant-isolation experiment (docs/RELIABILITY.md):
// K well-behaved tenants (default 4) send paced, staggered interactive
// ViL-28x28 traffic through a 1-shard tier with the shared plan store and
// the DWRR fairness layer on. --noisy adds the noisy neighbor: an
// "aggressor" tenant flooding small batch-class ViL-14x14 requests at ~10x
// a well-behaved tenant's rate against its own {weight 1, reject_fast,
// max_queue 4} quota. The exit code then enforces the isolation gates:
//   (a) every well-behaved tenant's p99 stays under 2x its solo-run p99
//       (solo baseline floored at 10 ms),
//   (b) the aggressor's excess is shed against its own quota — the
//       well-behaved tenants see zero QueueFull while the aggressor sees
//       at least one,
//   (c) the stats conservation law holds per tenant and globally (and the
//       per-tenant breakdown sums to the global counters),
//   (d) every completed result is bit-identical to the sequential engine.
//
// --sweep-tenants records the same mix at K = 2, 4, 8 (correctness gates
// (b)-(d) enforced; latencies informational).
//
// --json writes the machine-readable snapshot recorded as
// BENCH_serving.json at the repo root (CMake target bench_serving_json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/salo.hpp"
#include "host.hpp"
#include "sim/kernels.hpp"
#include "workload/workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

bool identical(const salo::LayerResult& a, const salo::LayerResult& b) {
    if (a.stats.cycles != b.stats.cycles || a.stats.tiles != b.stats.tiles) return false;
    if (a.output.count() != b.output.count()) return false;
    for (int h = 0; h < a.output.count(); ++h)
        if (salo::max_abs_diff(a.output[h], b.output[h]) != 0.0) return false;
    return true;
}

/// One ShardedSession run of the pre-generated stream — healthy or under
/// the seeded chaos mix — with per-request latency stamps and the tier
/// invariants evaluated locally.
struct TierRunResult {
    int shards = 0;
    bool chaos = false;
    double wall_ms = 0.0, p50_ms = 0.0, p99_ms = 0.0, throughput_rps = 0.0;
    salo::SessionStats stats;
    int lost = 0;             ///< futures never ready within the await budget
    bool identical_ok = true; ///< every completed result vs sequential
    bool conserved = true;    ///< the stats conservation law
    int bad_shard = -1;
    std::uint64_t shard_faults = 0, transient_faults = 0, stalls = 0;
};

TierRunResult run_tier(const salo::SaloConfig& config, int shards, bool chaos,
                       std::uint64_t seed,
                       const std::vector<const salo::AttentionWorkload*>& req_shape,
                       const std::vector<salo::QkvSet>& req_qkv,
                       const std::vector<salo::LayerResult>& expected) {
    using namespace salo;
    const int n = static_cast<int>(req_shape.size());
    TierRunResult out;
    out.shards = shards;
    out.chaos = chaos;

    ShardedSessionOptions options;
    options.num_shards = shards;
    options.retry.max_attempts = 4;
    options.retry.jitter_seed = seed;
    options.stall_timeout = std::chrono::milliseconds(250);
    options.health.window = 8;
    options.health.min_samples = 4;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = std::chrono::milliseconds(25);
    options.health.reintegrate_after = 2;

    // Shard-level chaos: one seeded shard faults ~5% of its tile indices
    // (deterministic per (seed, tile)) for its first 20 faults, then heals —
    // long enough to trip the breaker, short enough that half-open probes
    // find it clean and reintegrate it mid-run.
    std::shared_ptr<FaultInjector> bad_injector;
    if (chaos) {
        Rng pick(seed ^ 0xC4A05EEDull);
        out.bad_shard = static_cast<int>(pick.uniform_index(
            static_cast<std::uint64_t>(shards)));
        FaultInjector::Config fc;
        fc.seed = seed;
        fc.tile_fault_rate = 0.05;
        fc.max_faults = 20;
        bad_injector = std::make_shared<FaultInjector>(fc);
        options.shard_fault_injectors.assign(static_cast<std::size_t>(shards), nullptr);
        options.shard_fault_injectors[static_cast<std::size_t>(out.bad_shard)] =
            bad_injector;
    }

    ShardedSession tier(config, options);

    // Request-level chaos, deterministic per seed: 1 in 10 requests faults
    // its first attempt once (retry/failover path), 1 in 20 wedges 5 ms at
    // a tile boundary (latency noise under the stall bound).
    const int fault_phase = static_cast<int>(seed % 10);
    // +1 keeps the stall phase off the fault phase mod 10, so both kinds of
    // chaos actually occur.
    const int stall_phase = static_cast<int>((seed + 1) % 20);
    std::vector<std::shared_ptr<FaultInjector>> injectors(
        static_cast<std::size_t>(n));
    std::vector<std::future<LayerResult>> futures;
    std::vector<Clock::time_point> submit_at(static_cast<std::size_t>(n));
    futures.reserve(static_cast<std::size_t>(n));
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        AttentionRequest r =
            make_request(req_shape[idx]->pattern, req_qkv[idx].q, req_qkv[idx].k,
                         req_qkv[idx].v, req_shape[idx]->scale());
        if (chaos) {
            FaultInjector::Config fc;
            if (i % 10 == fault_phase) {
                fc.fault_tiles = {0};
                fc.max_faults = 1;
                injectors[idx] = std::make_shared<FaultInjector>(fc);
            } else if (i % 20 == stall_phase) {
                fc.stall_tiles = {0};
                fc.stall_for = std::chrono::milliseconds(5);
                fc.max_stalls = 1;
                injectors[idx] = std::make_shared<FaultInjector>(fc);
            }
            r.fault_injector = injectors[idx];
        }
        submit_at[idx] = Clock::now();
        futures.push_back(tier.submit(std::move(r)));
    }

    // Await every future under a global budget: a future still unready when
    // the budget expires is *lost* — the invariant the soak exists to catch.
    std::vector<double> latency_ms(static_cast<std::size_t>(n), -1.0);
    const Clock::time_point await_deadline = Clock::now() + std::chrono::seconds(120);
    int remaining = n;
    while (remaining > 0 && Clock::now() < await_deadline) {
        for (int i = 0; i < n; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            if (latency_ms[idx] >= 0.0) continue;
            if (futures[idx].wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                latency_ms[idx] = ms_between(submit_at[idx], Clock::now());
                --remaining;
            }
        }
        if (remaining > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    out.lost = remaining;
    out.wall_ms = ms_between(t0, Clock::now());

    std::vector<double> completed_ms;
    for (int i = 0; i < n; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (latency_ms[idx] < 0.0) continue;  // lost: leave it to the gate
        try {
            const LayerResult r = futures[idx].get();
            completed_ms.push_back(latency_ms[idx]);
            if (!identical(expected[idx], r)) out.identical_ok = false;
        } catch (const SaloError&) {
            // failed / timed_out / cancelled / rejected: classified by the
            // tier's own counters below.
        }
    }
    tier.close();

    out.stats = tier.stats();
    out.conserved = out.stats.accounted() == out.stats.submitted;
    out.throughput_rps = 1000.0 * static_cast<double>(completed_ms.size()) / out.wall_ms;
    out.p50_ms = percentile(completed_ms, 0.50);
    out.p99_ms = percentile(completed_ms, 0.99);
    if (bad_injector) out.shard_faults = bad_injector->faults_injected();
    for (const auto& inj : injectors) {
        if (!inj) continue;
        out.transient_faults += inj->faults_injected();
        out.stalls += inj->stalls_injected();
    }
    return out;
}

void print_tier(const TierRunResult& t) {
    std::printf("tier[%d shard%s, %s]        %9.1f ms  (%.1f req/s)  "
                "p50 %.1f ms, p99 %.1f ms\n",
                t.shards, t.shards == 1 ? "" : "s", t.chaos ? "chaos" : "healthy",
                t.wall_ms, t.throughput_rps, t.p50_ms, t.p99_ms);
    std::printf("  completed %llu / %llu (failed %llu), retried %llu, "
                "failed_over %llu\n",
                static_cast<unsigned long long>(t.stats.completed),
                static_cast<unsigned long long>(t.stats.submitted),
                static_cast<unsigned long long>(t.stats.failed),
                static_cast<unsigned long long>(t.stats.retried),
                static_cast<unsigned long long>(t.stats.failed_over));
    if (t.chaos)
        std::printf("  bad shard %d: %llu shard faults; %llu transient faults, "
                    "%llu stalls; quarantined %llu, reintegrated %llu\n",
                    t.bad_shard, static_cast<unsigned long long>(t.shard_faults),
                    static_cast<unsigned long long>(t.transient_faults),
                    static_cast<unsigned long long>(t.stalls),
                    static_cast<unsigned long long>(t.stats.quarantined_shard_events),
                    static_cast<unsigned long long>(t.stats.reintegrated_shard_events));
    std::printf("  lost futures: %d; conservation law holds: %s; completed "
                "bit-identical: %s\n",
                t.lost, t.conserved ? "yes" : "NO — BUG",
                t.identical_ok ? "yes" : "NO — BUG");
}

/// The invariants every tier run must satisfy, chaos or not.
bool tier_invariants_ok(const TierRunResult& t) {
    return t.lost == 0 && t.conserved && t.identical_ok;
}

void tier_json(std::ostream& os, const TierRunResult& t, const char* indent) {
    os << indent << "{\n"
       << indent << "  \"shards\": " << t.shards << ",\n"
       << indent << "  \"chaos\": " << (t.chaos ? "true" : "false") << ",\n"
       << indent << "  \"wall_ms\": " << t.wall_ms << ",\n"
       << indent << "  \"throughput_rps\": " << t.throughput_rps << ",\n"
       << indent << "  \"latency_p50_ms\": " << t.p50_ms << ",\n"
       << indent << "  \"latency_p99_ms\": " << t.p99_ms << ",\n"
       << indent << "  \"submitted\": " << t.stats.submitted << ",\n"
       << indent << "  \"completed\": " << t.stats.completed << ",\n"
       << indent << "  \"failed\": " << t.stats.failed << ",\n"
       << indent << "  \"retried\": " << t.stats.retried << ",\n"
       << indent << "  \"failed_over\": " << t.stats.failed_over << ",\n"
       << indent << "  \"quarantined_shard_events\": "
       << t.stats.quarantined_shard_events << ",\n"
       << indent << "  \"reintegrated_shard_events\": "
       << t.stats.reintegrated_shard_events << ",\n"
       << indent << "  \"lost_futures\": " << t.lost << ",\n"
       << indent << "  \"conserved\": " << (t.conserved ? "true" : "false") << ",\n"
       << indent << "  \"completed_bit_identical\": "
       << (t.identical_ok ? "true" : "false") << "\n"
       << indent << "}";
}

// -------------------------------------------------------------------------
// Tenant isolation: K paced well-behaved tenants vs one flooding aggressor.
// -------------------------------------------------------------------------

/// The fixed shapes + pre-generated inputs/expected outputs of the tenant
/// mix. Well-behaved tenants send the large vision shape interactive; the
/// aggressor floods the small one batch-class. Inputs come from small
/// per-role pools so the sequential baseline stays cheap while bit-identity
/// is still checked per request.
struct TenantMix {
    salo::AttentionWorkload wb_shape;
    salo::AttentionWorkload ag_shape;
    std::vector<salo::QkvSet> wb_qkv, ag_qkv;
    std::vector<salo::LayerResult> wb_expected, ag_expected;
    double wb_service_ms = 1.0;  ///< measured sequential service time
};

TenantMix make_tenant_mix(const salo::SaloConfig& config, std::uint64_t seed) {
    using namespace salo;
    AttentionWorkload vil = vil_stage2();
    vil.pattern = vil_2d(28, 28, 9, 9, 1);
    vil.heads = 2;
    vil.window = 9 * 9;
    vil.name = "ViL-28x28";
    AttentionWorkload vil_small = vil;
    vil_small.pattern = vil_2d(14, 14, 7, 7, 1);
    vil_small.window = 7 * 7;
    vil_small.name = "ViL-14x14";
    TenantMix mix{std::move(vil), std::move(vil_small)};

    const SaloEngine sequential(config);
    constexpr int kPool = 3;
    for (int i = 0; i < kPool; ++i) {
        mix.wb_qkv.push_back(make_qkv(mix.wb_shape, seed + 100 + static_cast<std::uint64_t>(i)));
        mix.ag_qkv.push_back(make_qkv(mix.ag_shape, seed + 200 + static_cast<std::uint64_t>(i)));
    }
    const auto t0 = Clock::now();
    for (int i = 0; i < kPool; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        mix.wb_expected.push_back(
            sequential.run(*sequential.compile(mix.wb_shape.pattern, mix.wb_shape.head_dim),
                           mix.wb_qkv[idx].q, mix.wb_qkv[idx].k, mix.wb_qkv[idx].v,
                           mix.wb_shape.scale()));
    }
    mix.wb_service_ms = std::max(ms_between(t0, Clock::now()) / kPool, 0.2);
    for (int i = 0; i < kPool; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        mix.ag_expected.push_back(
            sequential.run(*sequential.compile(mix.ag_shape.pattern, mix.ag_shape.head_dim),
                           mix.ag_qkv[idx].q, mix.ag_qkv[idx].k, mix.ag_qkv[idx].v,
                           mix.ag_shape.scale()));
    }
    return mix;
}

struct TenantPerf {
    std::string name;
    std::uint64_t sent = 0, completed = 0, rejected = 0, other = 0;
    double p50_ms = 0.0, p99_ms = 0.0;
};

struct TenantRunResult {
    int wb_tenants = 0;
    bool noisy = false;
    double wall_ms = 0.0, interval_ms = 0.0;
    std::vector<TenantPerf> wb;
    TenantPerf aggressor;
    salo::SessionStats stats;
    std::map<std::string, salo::TenantStats> per_tenant;
    int lost = 0;
    bool identical_ok = true;      ///< gate (d)
    bool conserved = true;         ///< gate (c), global + per tenant + sums
    bool wb_zero_rejects = true;   ///< gate (b), well-behaved side
    bool aggressor_shed = false;   ///< gate (b), aggressor side (noisy only)
    std::uint64_t shared_store_compiles = 0;
};

/// One run of the tenant mix: K well-behaved tenants paced at one request
/// per `interval` each (starts staggered across the interval), plus — when
/// `noisy` — the aggressor flooding 10x a well-behaved tenant's request
/// count with no pacing at all.
TenantRunResult run_tenants(const salo::SaloConfig& config, int wb_tenants, bool noisy,
                            int per_wb, double interval_ms, std::uint64_t seed,
                            const TenantMix& mix) {
    using namespace salo;
    TenantRunResult out;
    out.wb_tenants = wb_tenants;
    out.noisy = noisy;
    out.interval_ms = interval_ms;

    ShardedSessionOptions options;
    // One shard, one router lane: on a small host the isolation signal is
    // the scheduler's pick order, not parallelism — more lanes would only
    // let the OS scheduler blur what DWRR decides.
    options.num_shards = 1;
    options.router_workers = 1;
    options.shared_plan_store = true;
    options.retry.max_attempts = 2;
    options.retry.jitter_seed = seed;
    if (noisy) {
        TenantQuota quota;
        quota.weight = 1.0;
        quota.admission.mode = AdmissionMode::reject_fast;
        quota.admission.max_queue = 4;
        options.fairness.tenants["aggressor"] = quota;
    }
    ShardedSession tier(config, options);

    const int flood_n = noisy ? 10 * per_wb : 0;
    const int total = wb_tenants * per_wb + flood_n;
    std::vector<std::future<LayerResult>> futures(static_cast<std::size_t>(total));
    std::vector<Clock::time_point> submit_at(static_cast<std::size_t>(total));
    std::vector<const LayerResult*> expect_of(static_cast<std::size_t>(total), nullptr);

    // Each submitter owns a disjoint slot range; joins below publish the
    // writes before the await sweep reads them.
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> senders;
    for (int t = 0; t < wb_tenants; ++t) {
        senders.emplace_back([&, t] {
            const double stagger = interval_ms * static_cast<double>(t) /
                                   static_cast<double>(wb_tenants);
            for (int j = 0; j < per_wb; ++j) {
                std::this_thread::sleep_until(
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    stagger + interval_ms * j)));
                const std::size_t pool =
                    static_cast<std::size_t>(t + j) % mix.wb_qkv.size();
                const std::size_t slot = static_cast<std::size_t>(t * per_wb + j);
                AttentionRequest r = make_request(mix.wb_shape.pattern,
                                                  mix.wb_qkv[pool].q, mix.wb_qkv[pool].k,
                                                  mix.wb_qkv[pool].v, mix.wb_shape.scale());
                r.tenant_id = "wb-" + std::to_string(t);
                expect_of[slot] = &mix.wb_expected[pool];
                submit_at[slot] = Clock::now();
                futures[slot] = tier.submit(std::move(r));
            }
        });
    }
    if (noisy) {
        senders.emplace_back([&] {
            std::this_thread::sleep_until(start);
            for (int j = 0; j < flood_n; ++j) {
                const std::size_t pool = static_cast<std::size_t>(j) % mix.ag_qkv.size();
                const std::size_t slot = static_cast<std::size_t>(wb_tenants * per_wb + j);
                AttentionRequest r = make_request(mix.ag_shape.pattern,
                                                  mix.ag_qkv[pool].q, mix.ag_qkv[pool].k,
                                                  mix.ag_qkv[pool].v, mix.ag_shape.scale());
                r.tenant_id = "aggressor";
                r.priority = Priority::batch;
                expect_of[slot] = &mix.ag_expected[pool];
                submit_at[slot] = Clock::now();
                futures[slot] = tier.submit(std::move(r));
            }
        });
    }
    const auto t0 = Clock::now();
    for (auto& s : senders) s.join();

    // Await with readiness stamping (same scheme as run_tier).
    std::vector<double> latency_ms(static_cast<std::size_t>(total), -1.0);
    const Clock::time_point await_deadline = Clock::now() + std::chrono::seconds(120);
    int remaining = total;
    while (remaining > 0 && Clock::now() < await_deadline) {
        for (int i = 0; i < total; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            if (latency_ms[idx] >= 0.0) continue;
            if (futures[idx].wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                latency_ms[idx] = ms_between(submit_at[idx], Clock::now());
                --remaining;
            }
        }
        if (remaining > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    out.lost = remaining;
    out.wall_ms = ms_between(t0, Clock::now());

    // Classify per tenant.
    out.wb.resize(static_cast<std::size_t>(wb_tenants));
    for (int t = 0; t < wb_tenants; ++t)
        out.wb[static_cast<std::size_t>(t)].name = "wb-" + std::to_string(t);
    out.aggressor.name = "aggressor";
    std::vector<std::vector<double>> wb_ms(static_cast<std::size_t>(wb_tenants));
    for (int i = 0; i < total; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const bool is_wb = i < wb_tenants * per_wb;
        TenantPerf& perf = is_wb ? out.wb[static_cast<std::size_t>(i / per_wb)]
                                 : out.aggressor;
        ++perf.sent;
        if (latency_ms[idx] < 0.0) continue;  // lost: already gated
        try {
            const LayerResult r = futures[idx].get();
            ++perf.completed;
            if (is_wb) wb_ms[static_cast<std::size_t>(i / per_wb)].push_back(latency_ms[idx]);
            if (!identical(*expect_of[idx], r)) out.identical_ok = false;
        } catch (const QueueFull&) {
            ++perf.rejected;
        } catch (const std::exception&) {
            ++perf.other;
        }
    }
    for (int t = 0; t < wb_tenants; ++t) {
        TenantPerf& perf = out.wb[static_cast<std::size_t>(t)];
        perf.p50_ms = percentile(wb_ms[static_cast<std::size_t>(t)], 0.50);
        perf.p99_ms = percentile(wb_ms[static_cast<std::size_t>(t)], 0.99);
        if (perf.rejected > 0) out.wb_zero_rejects = false;
    }
    out.aggressor_shed = out.aggressor.rejected >= 1;
    tier.close();

    out.stats = tier.stats();
    out.per_tenant = tier.tenant_stats();
    if (tier.shared_plan_store())
        out.shared_store_compiles = tier.shared_plan_store()->stats().compiles;
    out.conserved = out.stats.accounted() == out.stats.submitted;
    std::uint64_t sum_submitted = 0, sum_accounted = 0;
    for (const auto& [name, ts] : out.per_tenant) {
        if (ts.accounted() != ts.submitted) out.conserved = false;
        sum_submitted += ts.submitted;
        sum_accounted += ts.accounted();
        (void)name;
    }
    if (sum_submitted != out.stats.submitted || sum_accounted != out.stats.accounted())
        out.conserved = false;
    return out;
}

void print_tenants(const TenantRunResult& r, double solo_p99_ms) {
    std::printf("tenant mix [%d well-behaved%s]  %9.1f ms wall, "
                "interval %.1f ms/tenant\n",
                r.wb_tenants, r.noisy ? " + aggressor" : "", r.wall_ms, r.interval_ms);
    for (const TenantPerf& t : r.wb)
        std::printf("  %-10s sent %3llu, completed %3llu, rejected %llu; "
                    "p50 %.1f ms, p99 %.1f ms\n",
                    t.name.c_str(), static_cast<unsigned long long>(t.sent),
                    static_cast<unsigned long long>(t.completed),
                    static_cast<unsigned long long>(t.rejected), t.p50_ms, t.p99_ms);
    if (r.noisy)
        std::printf("  %-10s sent %3llu, completed %3llu, rejected %llu "
                    "(shed against its own quota)\n",
                    r.aggressor.name.c_str(),
                    static_cast<unsigned long long>(r.aggressor.sent),
                    static_cast<unsigned long long>(r.aggressor.completed),
                    static_cast<unsigned long long>(r.aggressor.rejected));
    std::printf("  shared plan store compiles: %llu (tier-wide); lost futures: %d\n",
                static_cast<unsigned long long>(r.shared_store_compiles), r.lost);
    std::printf("  conservation (per tenant + global): %s; completed bit-identical: %s\n",
                r.conserved ? "yes" : "NO — BUG", r.identical_ok ? "yes" : "NO — BUG");
    if (solo_p99_ms > 0.0)
        std::printf("  solo baseline p99 %.1f ms (gate floor 10 ms)\n", solo_p99_ms);
}

void tenants_json(std::ostream& os, const TenantRunResult& r, const char* indent) {
    os << indent << "{\n"
       << indent << "  \"wb_tenants\": " << r.wb_tenants << ",\n"
       << indent << "  \"noisy\": " << (r.noisy ? "true" : "false") << ",\n"
       << indent << "  \"wall_ms\": " << r.wall_ms << ",\n"
       << indent << "  \"interval_ms\": " << r.interval_ms << ",\n"
       << indent << "  \"wb\": [\n";
    for (std::size_t i = 0; i < r.wb.size(); ++i) {
        const TenantPerf& t = r.wb[i];
        os << indent << "    {\"name\": \"" << t.name << "\", \"sent\": " << t.sent
           << ", \"completed\": " << t.completed << ", \"rejected\": " << t.rejected
           << ", \"p50_ms\": " << t.p50_ms << ", \"p99_ms\": " << t.p99_ms << "}"
           << (i + 1 < r.wb.size() ? "," : "") << "\n";
    }
    os << indent << "  ],\n"
       << indent << "  \"aggressor\": {\"sent\": " << r.aggressor.sent
       << ", \"completed\": " << r.aggressor.completed
       << ", \"rejected\": " << r.aggressor.rejected << "},\n"
       << indent << "  \"shared_store_compiles\": " << r.shared_store_compiles << ",\n"
       << indent << "  \"lost_futures\": " << r.lost << ",\n"
       << indent << "  \"wb_zero_rejects\": " << (r.wb_zero_rejects ? "true" : "false")
       << ",\n"
       << indent << "  \"aggressor_shed\": " << (r.aggressor_shed ? "true" : "false")
       << ",\n"
       << indent << "  \"conserved\": " << (r.conserved ? "true" : "false") << ",\n"
       << indent << "  \"completed_bit_identical\": "
       << (r.identical_ok ? "true" : "false") << "\n"
       << indent << "}";
}

/// Correctness gates every tenant run must satisfy ((b)-(d); the p99 gate
/// (a) is evaluated only for the explicit --noisy run).
bool tenant_invariants_ok(const TenantRunResult& r) {
    const bool shed_ok = !r.noisy || (r.wb_zero_rejects && r.aggressor_shed);
    return r.lost == 0 && r.conserved && r.identical_ok && shed_ok;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace salo;

    bool quick = false;
    bool overload = false;
    bool chaos = false;
    bool sweep_shards = false;
    bool tenants = false;
    bool noisy = false;
    bool sweep_tenants = false;
    int wb_tenants = 4;
    int shards = 0;
    int num_requests = 48;
    std::uint64_t seed = 42;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        else if (std::strcmp(argv[i], "--overload") == 0) overload = true;
        else if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
        else if (std::strcmp(argv[i], "--sweep-shards") == 0) sweep_shards = true;
        else if (std::strcmp(argv[i], "--noisy") == 0) { noisy = true; tenants = true; }
        else if (std::strcmp(argv[i], "--sweep-tenants") == 0) sweep_tenants = true;
        else if (std::strcmp(argv[i], "--tenants") == 0) {
            tenants = true;
            if (i + 1 < argc && argv[i + 1][0] >= '0' && argv[i + 1][0] <= '9')
                wb_tenants = std::atoi(argv[++i]);
        }
        else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc)
            shards = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
            num_requests = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::cerr << "usage: bench_serving [--quick] [--requests N] [--seed S] "
                         "[--overload] [--shards N] [--chaos] [--sweep-shards] "
                         "[--tenants [K]] [--noisy] [--sweep-tenants] [--json path]\n";
            return 2;
        }
    }
    if (quick) num_requests = std::min(num_requests, 16);
    if (num_requests < 1) num_requests = 1;
    if (wb_tenants < 1) wb_tenants = 1;
    if (chaos && shards <= 0) shards = 4;  // the soak needs a tier to degrade

    // The mixed stream: one NLP shape, two vision shapes (paper Table 2
    // families, scaled so a full stream finishes in seconds at functional
    // fidelity on one core).
    std::vector<AttentionWorkload> shapes;
    shapes.push_back(longformer_small(1024, 128, 4, 64, 1));
    {
        AttentionWorkload vil = vil_stage2();
        vil.pattern = vil_2d(28, 28, 9, 9, 1);
        vil.heads = 2;
        vil.window = 9 * 9;
        vil.name = "ViL-28x28";
        shapes.push_back(vil);
        AttentionWorkload vil_small = vil;
        vil_small.pattern = vil_2d(14, 14, 7, 7, 1);
        vil_small.window = 7 * 7;
        vil_small.name = "ViL-14x14";
        shapes.push_back(vil_small);
    }

    const SaloConfig config;  // default geometry, hardware-threads lanes
    std::printf("mixed serving stream: %d requests over %zu shapes "
                "(%s interleaved)\n",
                num_requests, shapes.size(), "Longformer-1024 + ViL-28x28 + ViL-14x14");
    std::printf("kernel ISA: %s, hardware threads: %d, lanes: %d\n\n",
                kernels::isa_name(), default_num_threads(), config.effective_threads());

    // Pre-generate the whole stream so generation cost never pollutes the
    // serving measurement.
    std::vector<const AttentionWorkload*> req_shape;
    std::vector<QkvSet> req_qkv;
    req_shape.reserve(static_cast<std::size_t>(num_requests));
    req_qkv.reserve(static_cast<std::size_t>(num_requests));
    for (int i = 0; i < num_requests; ++i) {
        const AttentionWorkload& w = shapes[static_cast<std::size_t>(i) % shapes.size()];
        req_shape.push_back(&w);
        req_qkv.push_back(make_qkv(w, 7000 + static_cast<std::uint64_t>(i)));
    }

    // --- Sequential baseline: synchronous one-shot engine calls ----------
    const SaloEngine sequential(config);
    std::vector<LayerResult> expected;
    expected.reserve(static_cast<std::size_t>(num_requests));
    const auto seq0 = Clock::now();
    for (int i = 0; i < num_requests; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        expected.push_back(sequential.run(
            *sequential.compile(req_shape[idx]->pattern, req_shape[idx]->head_dim),
            req_qkv[idx].q, req_qkv[idx].k, req_qkv[idx].v, req_shape[idx]->scale()));
    }
    const double sequential_ms = ms_between(seq0, Clock::now());
    std::printf("%-26s %9.1f ms  (%.1f req/s)\n", "sequential_engine",
                sequential_ms, 1000.0 * num_requests / sequential_ms);

    // --- Session serving: burst-submit, await in order --------------------
    // Requests carry their *pattern*, not a precompiled plan: the session
    // resolves every request through the PlanCache, so the stream measures
    // the compile -> cache -> submit lifecycle end to end (3 misses for the
    // 3 distinct shapes, hits for everything after).
    SaloSession session(config);
    std::vector<std::future<LayerResult>> futures;
    std::vector<Clock::time_point> submit_at;
    futures.reserve(static_cast<std::size_t>(num_requests));
    submit_at.reserve(static_cast<std::size_t>(num_requests));
    const auto serve0 = Clock::now();
    for (int i = 0; i < num_requests; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        submit_at.push_back(Clock::now());
        futures.push_back(session.submit(req_shape[idx]->pattern, req_qkv[idx].q,
                                         req_qkv[idx].k, req_qkv[idx].v,
                                         req_shape[idx]->scale()));
    }
    // Stamp each request when its future becomes ready, not in submission
    // order: in a batch-of-N, lanes finish out of order, and head-of-line
    // waiting would inflate the recorded latency of early finishers. The
    // polling sweep bounds the stamping error at ~the sweep interval,
    // far below the ms-scale latencies measured here.
    std::vector<double> latency_ms(static_cast<std::size_t>(num_requests), -1.0);
    int remaining = num_requests;
    while (remaining > 0) {
        for (int i = 0; i < num_requests; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            if (latency_ms[idx] >= 0.0) continue;
            if (futures[idx].wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                latency_ms[idx] = ms_between(submit_at[idx], Clock::now());
                --remaining;
            }
        }
        // 1 ms sweep: invisible next to the ~100 ms request latencies, and
        // keeps the measuring thread from competing with serving lanes on
        // low-core hosts.
        if (remaining > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<LayerResult> served;
    served.reserve(static_cast<std::size_t>(num_requests));
    for (int i = 0; i < num_requests; ++i)
        served.push_back(futures[static_cast<std::size_t>(i)].get());
    const double session_ms = ms_between(serve0, Clock::now());
    session.drain();

    bool bit_identical = true;
    for (int i = 0; i < num_requests; ++i)
        if (!identical(expected[static_cast<std::size_t>(i)],
                       served[static_cast<std::size_t>(i)]))
            bit_identical = false;

    const SessionStats stats = session.stats();
    const double throughput = 1000.0 * num_requests / session_ms;
    const double p50 = percentile(latency_ms, 0.50);
    const double p99 = percentile(latency_ms, 0.99);

    std::printf("%-26s %9.1f ms  (%.1f req/s, %.2fx vs sequential)\n", "session_serving",
                session_ms, throughput, sequential_ms / session_ms);
    std::printf("request latency            p50 %.1f ms, p99 %.1f ms\n", p50, p99);
    std::printf("batches: %llu (largest %zu)\n",
                static_cast<unsigned long long>(stats.batches), stats.max_batch);
    std::printf("plan cache                 %llu hits / %llu misses (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(stats.plan_cache.hits),
                static_cast<unsigned long long>(stats.plan_cache.misses),
                100.0 * stats.plan_cache.hit_rate());
    std::printf("bit-identical to sequential: %s\n", bit_identical ? "yes" : "NO — BUG");

    // --- Overload: 10x burst against a bounded reject-fast front door -----
    struct OverloadResult {
        bool ran = false;
        std::uint64_t submitted = 0, completed = 0, rejected = 0, timed_out = 0,
                      cancelled = 0, failed = 0;
        double shed_rate = 0.0, goodput_rps = 0.0, p50 = 0.0, p99 = 0.0,
               p99_ratio = 0.0, wall_ms = 0.0, arrival_interval_ms = 0.0;
        std::size_t max_queue = 0, max_queue_batch = 0;
        bool identical_ok = true;
    } ov;

    if (overload) {
        // Offered load: arrivals paced at 10x the measured sequential
        // service rate, so the burst genuinely outruns capacity instead of
        // measuring one giant enqueue.
        const double mean_service_ms = sequential_ms / num_requests;
        ov.arrival_interval_ms = mean_service_ms / 10.0;

        SessionOptions options;
        options.admission.mode = AdmissionMode::reject_fast;
        options.admission.max_queue =
            std::max<std::size_t>(4, static_cast<std::size_t>(num_requests) / 2);
        options.admission.max_queue_batch =
            std::max<std::size_t>(2, options.admission.max_queue / 4);
        ov.max_queue = options.admission.max_queue;
        ov.max_queue_batch = options.admission.max_queue_batch;

        // Seeded request mix: ~half batch-class, a quarter carrying a
        // deadline a few service times out — deep-queue requests miss it
        // and are shed at dispatch, never reaching the engine.
        Rng mix(seed);
        SaloSession burst(config, options);
        std::vector<std::future<LayerResult>> ofutures;
        std::vector<Clock::time_point> osubmit(static_cast<std::size_t>(num_requests));
        ofutures.reserve(static_cast<std::size_t>(num_requests));
        const auto burst0 = Clock::now();
        for (int i = 0; i < num_requests; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            const auto arrive =
                burst0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 ov.arrival_interval_ms * i));
            std::this_thread::sleep_until(arrive);
            AttentionRequest r =
                make_request(req_shape[idx]->pattern, req_qkv[idx].q, req_qkv[idx].k,
                             req_qkv[idx].v, req_shape[idx]->scale());
            if (mix.uniform() < 0.5) r.priority = Priority::batch;
            if (mix.uniform() < 0.25)
                r.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double, std::milli>(
                                                    6.0 * mean_service_ms));
            osubmit[idx] = Clock::now();
            ofutures.push_back(burst.submit(std::move(r)));
        }
        // Stamp readiness (admitted latency), then classify every outcome.
        std::vector<double> ready_ms(static_cast<std::size_t>(num_requests), -1.0);
        int oremaining = num_requests;
        while (oremaining > 0) {
            for (int i = 0; i < num_requests; ++i) {
                const auto idx = static_cast<std::size_t>(i);
                if (ready_ms[idx] >= 0.0) continue;
                if (ofutures[idx].wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    ready_ms[idx] = ms_between(osubmit[idx], Clock::now());
                    --oremaining;
                }
            }
            if (oremaining > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ov.wall_ms = ms_between(burst0, Clock::now());
        std::vector<double> admitted_ms;
        for (int i = 0; i < num_requests; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            try {
                const LayerResult r = ofutures[idx].get();
                ++ov.completed;
                admitted_ms.push_back(ready_ms[idx]);
                if (!identical(expected[idx], r)) ov.identical_ok = false;
            } catch (const QueueFull&) {
                ++ov.rejected;
            } catch (const DeadlineExceeded&) {
                ++ov.timed_out;
            } catch (const RequestCancelled&) {
                ++ov.cancelled;
            } catch (const std::exception&) {
                ++ov.failed;
            }
        }
        burst.close();
        const SessionStats ostats = burst.stats();
        ov.ran = true;
        ov.submitted = ostats.submitted;
        ov.shed_rate = static_cast<double>(ov.rejected + ov.timed_out + ov.cancelled) /
                       static_cast<double>(num_requests);
        ov.goodput_rps = 1000.0 * static_cast<double>(ov.completed) / ov.wall_ms;
        ov.p50 = percentile(admitted_ms, 0.50);
        ov.p99 = percentile(admitted_ms, 0.99);
        ov.p99_ratio = p99 > 0.0 ? ov.p99 / p99 : 0.0;
        const bool conserved = ostats.accounted() == ostats.submitted;
        if (!conserved) ov.identical_ok = false;

        std::printf("\noverload burst (10x, seed %llu): %d requests, "
                    "max_queue %zu (batch cap %zu)\n",
                    static_cast<unsigned long long>(seed), num_requests, ov.max_queue,
                    ov.max_queue_batch);
        std::printf("  completed %llu, rejected %llu, timed_out %llu "
                    "(shed rate %.1f%%)\n",
                    static_cast<unsigned long long>(ov.completed),
                    static_cast<unsigned long long>(ov.rejected),
                    static_cast<unsigned long long>(ov.timed_out),
                    100.0 * ov.shed_rate);
        std::printf("  goodput %.1f req/s, admitted p50 %.1f ms, p99 %.1f ms "
                    "(%.2fx non-overloaded p99)\n",
                    ov.goodput_rps, ov.p50, ov.p99, ov.p99_ratio);
        std::printf("  conservation law holds: %s; admitted results bit-identical: %s\n",
                    conserved ? "yes" : "NO — BUG", ov.identical_ok ? "yes" : "NO — BUG");
    }

    // --- Sharded tier: healthy baseline, then the seeded chaos soak -------
    bool tier_ok = true;
    std::vector<TierRunResult> tier_runs;  // recorded to JSON
    double chaos_p99_ratio = 0.0;
    if (shards > 0) {
        std::printf("\nsharded tier: %d shards, seed %llu%s\n", shards,
                    static_cast<unsigned long long>(seed),
                    chaos ? " (chaos soak)" : "");
        const TierRunResult healthy =
            run_tier(config, shards, /*chaos=*/false, seed, req_shape, req_qkv, expected);
        print_tier(healthy);
        tier_runs.push_back(healthy);
        tier_ok = tier_ok && tier_invariants_ok(healthy);
        if (chaos) {
            const TierRunResult soak =
                run_tier(config, shards, /*chaos=*/true, seed, req_shape, req_qkv,
                         expected);
            print_tier(soak);
            tier_runs.push_back(soak);
            // The p99 bar floors the healthy baseline at 10 ms so a
            // microsecond-fast healthy tier cannot turn scheduling noise
            // into a gate failure.
            const double healthy_p99 = std::max(healthy.p99_ms, 10.0);
            chaos_p99_ratio = soak.p99_ms / healthy_p99;
            const bool soak_ok = tier_invariants_ok(soak) && soak.stats.retried >= 1 &&
                                 chaos_p99_ratio < 3.0;
            std::printf("  chaos p99 %.1f ms vs healthy p99 %.1f ms: %.2fx "
                        "(bar < 3x) -> %s\n",
                        soak.p99_ms, healthy.p99_ms, chaos_p99_ratio,
                        soak_ok ? "OK" : "FAIL");
            tier_ok = tier_ok && soak_ok;
        }
    }
    if (sweep_shards) {
        std::printf("\nshard sweep (healthy + chaos per width, seed %llu):\n",
                    static_cast<unsigned long long>(seed));
        for (const int width : {1, 2, 4}) {
            for (const bool with_chaos : {false, true}) {
                // Skip combinations the explicit --shards run already did.
                bool done = false;
                for (const TierRunResult& t : tier_runs)
                    if (t.shards == width && t.chaos == with_chaos) done = true;
                if (done) continue;
                const TierRunResult t = run_tier(config, width, with_chaos, seed,
                                                 req_shape, req_qkv, expected);
                print_tier(t);
                tier_runs.push_back(t);
                tier_ok = tier_ok && tier_invariants_ok(t);
            }
        }
    }

    // --- Tenant isolation: paced tenants vs the noisy neighbor ------------
    bool tenants_ok = true;
    std::vector<TenantRunResult> tenant_runs;  // recorded to JSON
    double solo_p99_ms = 0.0, worst_wb_ratio = 0.0;
    if (tenants || sweep_tenants) {
        const TenantMix mix = make_tenant_mix(config, seed);
        const int per_wb = quick ? 6 : 12;
        if (tenants) {
            // One request per `interval` per tenant; the interval scales
            // with K so the combined well-behaved load stays at ~half of
            // the single lane's capacity and isolation — not raw overload —
            // is what the gate measures.
            const double interval_ms =
                std::max(2.0 * wb_tenants * mix.wb_service_ms, 2.0 * wb_tenants);
            std::printf("\ntenant isolation: %d well-behaved tenant%s%s, seed %llu\n",
                        wb_tenants, wb_tenants == 1 ? "" : "s",
                        noisy ? " + 1 noisy aggressor (10x flood)" : "",
                        static_cast<unsigned long long>(seed));
            // Solo baseline: one tenant, same pacing, empty tier.
            const TenantRunResult solo =
                run_tenants(config, 1, /*noisy=*/false, per_wb, interval_ms, seed, mix);
            solo_p99_ms = solo.wb.empty() ? 0.0 : solo.wb[0].p99_ms;
            tenants_ok = tenants_ok && tenant_invariants_ok(solo);

            const TenantRunResult contested =
                run_tenants(config, wb_tenants, noisy, per_wb, interval_ms, seed, mix);
            print_tenants(contested, solo_p99_ms);
            tenant_runs.push_back(contested);
            tenants_ok = tenants_ok && tenant_invariants_ok(contested);
            if (noisy) {
                // Gate (a): every well-behaved tenant within 2x its solo
                // p99, the baseline floored at 10 ms so a microsecond-fast
                // solo run cannot turn scheduler noise into a failure.
                const double floor_p99 = std::max(solo_p99_ms, 10.0);
                for (const TenantPerf& t : contested.wb)
                    worst_wb_ratio = std::max(worst_wb_ratio, t.p99_ms / floor_p99);
                const bool fair = worst_wb_ratio < 2.0;
                std::printf("  worst wb p99 ratio vs solo: %.2fx (bar < 2x) -> %s\n",
                            worst_wb_ratio, fair ? "OK" : "FAIL");
                tenants_ok = tenants_ok && fair;
            }
        }
        if (sweep_tenants) {
            std::printf("\ntenant sweep (noisy mix, correctness gates, seed %llu):\n",
                        static_cast<unsigned long long>(seed));
            for (const int k : {2, 4, 8}) {
                bool done = false;
                for (const TenantRunResult& r : tenant_runs)
                    if (r.wb_tenants == k && r.noisy) done = true;
                if (done) continue;
                const double interval_ms =
                    std::max(2.0 * k * mix.wb_service_ms, 2.0 * k);
                const TenantRunResult r = run_tenants(config, k, /*noisy=*/true, per_wb,
                                                      interval_ms, seed, mix);
                print_tenants(r, 0.0);
                tenant_runs.push_back(r);
                tenants_ok = tenants_ok && tenant_invariants_ok(r);
            }
        }
    }

    if (!json_path.empty()) {
        char date[32] = "unknown";
        const std::time_t now = std::time(nullptr);
        std::strftime(date, sizeof date, "%Y-%m-%d", std::gmtime(&now));
        std::ofstream os(json_path);
        os << "{\n"
           << "  \"bench\": \"serving\",\n"
           << "  \"schema_version\": 1,\n"
           << "  \"date\": \"" << date << "\",\n"
           << "  \"mix\": \"longformer-1024x4h + vil-28x28x2h + vil-14x14x2h\",\n"
           << "  \"seed\": " << seed << ",\n"
           << "  \"num_requests\": " << num_requests << ",\n"
           << "  \"distinct_shapes\": " << shapes.size() << ",\n"
           << "  \"fidelity\": \"functional\",\n"
           << "  \"kernel_isa\": \"" << kernels::isa_name() << "\",\n"
           << "  \"hardware_threads\": " << default_num_threads() << ",\n"
           << "  \"cpu_model\": \"" << salo::bench::cpu_model() << "\",\n"
           << "  \"sequential_ms\": " << sequential_ms << ",\n"
           << "  \"session_ms\": " << session_ms << ",\n"
           << "  \"throughput_rps\": " << throughput << ",\n"
           << "  \"latency_p50_ms\": " << p50 << ",\n"
           << "  \"latency_p99_ms\": " << p99 << ",\n"
           << "  \"speedup_vs_sequential\": " << sequential_ms / session_ms << ",\n"
           << "  \"batches\": " << stats.batches << ",\n"
           << "  \"max_batch\": " << stats.max_batch << ",\n"
           << "  \"plan_cache_hit_rate\": " << stats.plan_cache.hit_rate() << ",\n"
           << "  \"plan_cache_hits\": " << stats.plan_cache.hits << ",\n"
           << "  \"plan_cache_misses\": " << stats.plan_cache.misses << ",\n"
           << "  \"bit_identical\": " << (bit_identical ? "true" : "false");
        if (ov.ran) {
            os << ",\n  \"overload\": {\n"
               << "    \"burst_factor\": 10,\n"
               << "    \"arrival_interval_ms\": " << ov.arrival_interval_ms << ",\n"
               << "    \"admission_mode\": \"reject_fast\",\n"
               << "    \"max_queue\": " << ov.max_queue << ",\n"
               << "    \"max_queue_batch\": " << ov.max_queue_batch << ",\n"
               << "    \"submitted\": " << ov.submitted << ",\n"
               << "    \"completed\": " << ov.completed << ",\n"
               << "    \"rejected\": " << ov.rejected << ",\n"
               << "    \"timed_out\": " << ov.timed_out << ",\n"
               << "    \"cancelled\": " << ov.cancelled << ",\n"
               << "    \"failed\": " << ov.failed << ",\n"
               << "    \"shed_rate\": " << ov.shed_rate << ",\n"
               << "    \"goodput_rps\": " << ov.goodput_rps << ",\n"
               << "    \"admitted_p50_ms\": " << ov.p50 << ",\n"
               << "    \"admitted_p99_ms\": " << ov.p99 << ",\n"
               << "    \"p99_ratio_vs_baseline\": " << ov.p99_ratio << ",\n"
               << "    \"admitted_bit_identical\": "
               << (ov.identical_ok ? "true" : "false") << "\n"
               << "  }";
        }
        if (!tier_runs.empty()) {
            os << ",\n  \"shard_sweep\": [\n";
            for (std::size_t i = 0; i < tier_runs.size(); ++i) {
                tier_json(os, tier_runs[i], "    ");
                if (i + 1 < tier_runs.size()) os << ",";
                os << "\n";
            }
            os << "  ]";
            if (chaos) os << ",\n  \"chaos_p99_ratio\": " << chaos_p99_ratio;
        }
        if (!tenant_runs.empty()) {
            os << ",\n  \"tenant_isolation\": {\n"
               << "    \"solo_p99_ms\": " << solo_p99_ms << ",\n"
               << "    \"worst_wb_p99_ratio\": " << worst_wb_ratio << ",\n"
               << "    \"runs\": [\n";
            for (std::size_t i = 0; i < tenant_runs.size(); ++i) {
                tenants_json(os, tenant_runs[i], "      ");
                if (i + 1 < tenant_runs.size()) os << ",";
                os << "\n";
            }
            os << "    ]\n  }";
        }
        os << "\n}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    const bool overload_ok = !ov.ran || (ov.identical_ok && ov.p99_ratio < 2.0);
    return bit_identical && overload_ok && tier_ok && tenants_ok ? 0 : 1;
}
