// serve-mixed: open-loop Poisson arrivals at a fixed offered rate into a
// ShardedSession with default options (2 shards) and one engine thread per
// shard, from three equal-weight tenants.
//
// The traffic is synthetic; no trace of real traffic was available. The
// request multiset of a run is fixed (see known_shapes): only arrival times,
// order, tenant/priority placement and Q/K/V values depend on the seed, so
// the simulated cycle total repeats exactly. Latency counts from each
// request's due time. Every completed response is checked against a
// standalone 1-thread engine run of the same request made during set-up,
// and the session and per-tenant conservation laws are checked at the end.
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <thread>

#include "core/shard_router.hpp"
#include "harness.hpp"
#include "workload/workloads.hpp"

namespace perfbench {
namespace {

using namespace salo;

/// Offered rate: process CPU utilization is about 0.2 on the reference
/// host, so a host slowdown of 1.5x still leaves the shards far from
/// saturation, and a 30-second run sends 3000 requests (30 beyond its p99).
constexpr double kOfferedRps = 100.0;
constexpr double kLimitMs = 100.0;
constexpr int kVariants = 4;  ///< seeded Q/K/V sets per known shape
/// Threads that wait on the in-flight futures. Each blocks on one future,
/// so completions are stamped without polling while fewer requests than
/// this are in flight.
constexpr int kWaiters = 8;
const char* const kTenants[3] = {"tenant-a", "tenant-b", "tenant-c"};

/// Longformer-family requests keep Longformer's structure (a sliding band
/// plus a global token) at 2 heads x 64 and a 2x128+1 band, so one request
/// costs milliseconds and a run holds enough requests for a p99; at the
/// same utilization the full 12-head layer would allow ~10 requests per
/// second.
AttentionWorkload longformer_request(int n) { return longformer_small(n, 128, 2, 64, 1); }

/// Share of requests whose length was never seen before (n = 257, 258,
/// ..., skipping the bucket lengths); each forces a scheduler compile on
/// the request path.
constexpr double kNovelShare = 0.10;

struct KnownShape {
    AttentionWorkload shape;
    double share;
};

/// The known shapes and their shares. In cost order the classes are
/// n = 256 (20 %), novel (10 %), n = 512 (40 %), n = 1024 (20 %) and
/// ViL-stage2 (10 %), so the median falls inside the n = 512 class (the
/// 30-70 % band) and the p99 inside ViL-stage2 (90-100 %). Neither
/// percentile then sits on a class boundary, where it would jump between
/// two classes' latencies from run to run.
std::vector<KnownShape> known_shapes() {
    return {{longformer_request(256), 0.20},
            {longformer_request(512), 0.40},
            {longformer_request(1024), 0.20},
            {vil_stage2(), 0.10}};
}

/// One engine thread per shard: every request runs sequentially on the
/// router worker that carries it, so its service time does not depend on
/// whether its shard is otherwise idle (the default gives a lone request
/// the shard's whole pool, and two 4-thread shard pools oversubscribe the
/// host's 4 threads). Tile-parallel execution therefore does no work here.
SaloConfig shard_config() {
    SaloConfig config;
    config.num_threads = 1;
    return config;
}

/// A request's inputs and its standalone reference.
struct Prepared {
    AttentionWorkload shape;
    QkvSet input;
    LayerResult reference;
    double engine_ms = 0.0;   ///< standalone budget-1 run
    double compile_ms = 0.0;  ///< scheduler compile (novel shapes only)
};

struct Request {
    std::size_t prepared = 0;  ///< index into the prepared inputs
    bool novel = false;
    int tenant = 0;
    Priority priority = Priority::interactive;
    double offset_s = 0.0;  ///< due time from the phase start
};

struct Plan {
    std::vector<Prepared> prepared;
    std::vector<std::vector<Request>> phases;
};

/// Build every phase's request list and all references. Novel lengths are
/// 257, 258, ... in request order, skipping the bucket lengths. With
/// `time_engine`, each reference is run a second time, warm, and that run
/// timed as the request's standalone engine time.
Plan make_plan(std::uint64_t seed, const std::vector<double>& phase_seconds, bool time_engine) {
    Plan plan;
    const std::vector<KnownShape> shapes = known_shapes();
    const SaloEngine ref_engine{shard_config()};
    RunOptions one_thread;
    one_thread.thread_budget = 1;
    auto prepare = [&](const AttentionWorkload& w, std::uint64_t s, bool novel) {
        Prepared p{w, make_qkv(w, s), {}, 0.0, 0.0};
        const auto t0 = Clock::now();
        const CompiledPlanPtr compiled = compile_shared(w.pattern, w.head_dim, ref_engine.config());
        if (novel) p.compile_ms = ms_between(t0, Clock::now());
        p.reference = ref_engine.run(*compiled, p.input.q, p.input.k, p.input.v, w.scale(),
                                     one_thread);
        if (time_engine) {
            const auto t1 = Clock::now();
            (void)ref_engine.run(*compiled, p.input.q, p.input.k, p.input.v, w.scale(),
                                 one_thread);
            p.engine_ms = ms_between(t1, Clock::now());
        }
        plan.prepared.push_back(std::move(p));
    };
    for (std::size_t i = 0; i < shapes.size(); ++i)
        for (int v = 0; v < kVariants; ++v)
            prepare(shapes[i].shape, sub_seed(seed, i * kVariants + static_cast<std::size_t>(v)),
                    false);

    int novel_n = 257;
    for (std::size_t ph = 0; ph < phase_seconds.size(); ++ph) {
        Rng rng(sub_seed(seed, 1000 + ph));
        const auto count = static_cast<std::size_t>(std::llround(kOfferedRps * phase_seconds[ph]));
        std::vector<Request> reqs;
        const auto novel =
            static_cast<std::size_t>(std::llround(kNovelShare * static_cast<double>(count)));
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            const auto k = static_cast<std::size_t>(std::llround(shapes[i].share * static_cast<double>(count)));
            for (std::size_t j = 0; j < k && reqs.size() + novel < count; ++j)
                reqs.push_back(Request{i * kVariants + rng.uniform_index(kVariants), false});
        }
        while (reqs.size() < count) {
            for (const KnownShape& k : shapes)
                if (k.shape.n() == novel_n) ++novel_n;
            prepare(longformer_request(novel_n),
                    sub_seed(seed, 5000 + static_cast<std::uint64_t>(novel_n)), true);
            ++novel_n;
            reqs.push_back(Request{plan.prepared.size() - 1, true});
        }
        // Seeded order; exact thirds per tenant and a quarter batch-priority.
        for (std::size_t i = reqs.size(); i > 1; --i)
            std::swap(reqs[i - 1], reqs[rng.uniform_index(i)]);
        std::vector<std::size_t> perm(reqs.size());
        for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            reqs[perm[i]].tenant = static_cast<int>(i % 3);
            if (i < reqs.size() / 4) reqs[perm[i]].priority = Priority::batch;
        }
        const std::vector<double> offsets = poisson_offsets(rng.next_u64(), reqs.size(),
                                                            phase_seconds[ph]);
        for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].offset_s = offsets[i];
        plan.phases.push_back(std::move(reqs));
    }
    return plan;
}

/// One set-up: session construction plus the known-shape compiles on every
/// shard.
std::unique_ptr<ShardedSession> set_up() {
    auto session = std::make_unique<ShardedSession>(shard_config());
    for (int s = 0; s < session->num_shards(); ++s)
        for (const KnownShape& k : known_shapes())
            (void)session->shard_engine(s).compile(k.shape.pattern, k.shape.head_dim);
    return session;
}

struct Outcome {
    Stamp stamp;
    bool ok = false;       ///< completed and bit-equal to the reference
    bool errored = false;  ///< the submit or the future failed
};

struct PhaseResult {
    std::vector<Outcome> outcomes;
    std::vector<double> submit_us;
    /// Process CPU seconds of the phase, less what the benchmark's own
    /// threads spent outside submit() (building requests, verifying).
    double library_cpu_s = 0.0;
};

/// Open loop over one phase: the generator sleeps until each due time and
/// submits; kWaiters threads take the in-flight futures in submit order,
/// each blocking on one, and stamp and verify its completion.
PhaseResult run_phase(ShardedSession& session, const Plan& plan, const std::vector<Request>& reqs,
                      RunResult& r, Tracer* tr) {
    PhaseResult out;
    out.outcomes.resize(reqs.size());
    struct InFlight {
        std::size_t idx;
        std::future<LayerResult> f;
    };
    std::mutex m;
    std::condition_variable cv;
    std::deque<InFlight> incoming;
    bool closed = false;
    double waiters_cpu_s = 0.0;  // guarded by m

    auto wait_loop = [&] {
        const double cpu0 = thread_cpu_s();
        for (;;) {
            InFlight fl;
            {
                std::unique_lock<std::mutex> lock(m);
                cv.wait(lock, [&] { return closed || !incoming.empty(); });
                if (incoming.empty()) {
                    waiters_cpu_s += thread_cpu_s() - cpu0;
                    return;
                }
                fl = std::move(incoming.front());
                incoming.pop_front();
            }
            fl.f.wait();
            Outcome& o = out.outcomes[fl.idx];
            o.stamp.done = Clock::now();
            try {
                const LayerResult got = fl.f.get();
                const Prepared& p = plan.prepared[reqs[fl.idx].prepared];
                o.ok = bit_equal(got.output, p.reference.output) &&
                       stats_equal(got.stats, p.reference.stats);
            } catch (const std::exception&) {
                o.errored = true;
            }
            if (tr != nullptr)
                tr->record("request", -1, static_cast<std::int64_t>(fl.idx),
                           tr->ns_of(o.stamp.due), tr->ns_of(o.stamp.done));
        }
    };
    std::vector<std::thread> waiters;
    for (int i = 0; i < kWaiters; ++i) waiters.emplace_back(wait_loop);

    // The waiters are joined on every path, so a throw from the generator
    // never leaves them running against destroyed state.
    std::exception_ptr generator_error;
    const double phase_cpu0 = process_cpu_s();
    const double generator_cpu0 = thread_cpu_s();
    double submit_cpu_s = 0.0;
    try {
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Request& q = reqs[i];
            const Prepared& p = plan.prepared[q.prepared];
            AttentionRequest req = make_request(p.shape.pattern, p.input.q, p.input.k,
                                                p.input.v, p.shape.scale());
            req.tenant_id = kTenants[q.tenant];
            req.priority = q.priority;
            Stamp& stamp = out.outcomes[i].stamp;
            stamp.due = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(q.offset_s));
            std::this_thread::sleep_until(stamp.due);
            stamp.sent = Clock::now();
            std::future<LayerResult> f;
            const double submit_cpu0 = thread_cpu_s();
            try {
                f = session.submit(std::move(req));
                submit_cpu_s += thread_cpu_s() - submit_cpu0;
            } catch (const std::exception& ex) {
                r.fact("last_error", ex.what());
                out.outcomes[i].errored = true;
                continue;
            }
            const auto sent_end = Clock::now();
            out.submit_us.push_back(ms_between(stamp.sent, sent_end) * 1e3);
            if (tr != nullptr)
                tr->record("admission.submit", -1, static_cast<std::int64_t>(i),
                           tr->ns_of(stamp.sent), tr->ns_of(sent_end));
            {
                std::lock_guard<std::mutex> lock(m);
                incoming.push_back(InFlight{i, std::move(f)});
            }
            cv.notify_one();
        }
    } catch (...) {
        generator_error = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lock(m);
        closed = true;
    }
    cv.notify_all();
    for (std::thread& t : waiters) t.join();
    const double generator_cpu_s = thread_cpu_s() - generator_cpu0 - submit_cpu_s;
    out.library_cpu_s = process_cpu_s() - phase_cpu0 - generator_cpu_s - waiters_cpu_s;
    if (generator_error) std::rethrow_exception(generator_error);
    return out;
}

/// Fold one phase into `e`. The phase is busy from its first due time to
/// its last completion.
void tally(const Plan& plan, const std::vector<Request>& reqs, const PhaseResult& ph,
           RunResult& r, EndToEnd& e) {
    Clock::time_point last_done = ph.outcomes.front().stamp.due;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ++r.attempted;
        const Outcome& o = ph.outcomes[i];
        last_done = std::max(last_done, o.stamp.done);
        if (!o.ok) {
            ++r.failed;
            if (!o.errored) ++r.mismatches;
            continue;
        }
        const Prepared& p = plan.prepared[reqs[i].prepared];
        const double ms = o.stamp.latency_ms();
        e.latency_ms.push_back(ms);
        e.positions += static_cast<std::uint64_t>(p.shape.n());
        e.cycles_per_token += static_cast<double>(p.reference.stats.cycles);
        if (ms <= kLimitMs) ++e.within_limit;
    }
    e.busy_s = ms_between(ph.outcomes.front().stamp.due, last_done) / 1e3;
}

void check_conservation(const ShardedSession& session, std::uint64_t submitted, RunResult& r) {
    const SessionStats st = session.stats();
    if (st.submitted != submitted || st.accounted() != st.submitted)
        r.problem("session conservation law violated");
    TenantStats sum;
    for (const auto& [name, t] : session.tenant_stats()) {
        if (t.accounted() != t.submitted) r.problem("tenant " + name + " conservation violated");
        sum.submitted += t.submitted;
        sum.completed += t.completed;
        sum.failed += t.failed;
        sum.rejected += t.rejected;
    }
    if (sum.submitted != st.submitted || sum.completed != st.completed ||
        sum.failed != st.failed || sum.rejected != st.rejected)
        r.problem("tenant stats do not sum to the session stats");
}

}  // namespace

RunResult run_serve_mixed(const Options& opt) {
    RunResult r;
    const std::vector<double> phases =
        opt.trace ? std::vector<double>{opt.seconds / 2, opt.seconds}
                  : std::vector<double>{opt.seconds};
    double setup_s = 0.0;
    std::size_t setup_reps = 0;
    const std::unique_ptr<ShardedSession> session = timed_set_up(set_up, setup_s, setup_reps);
    const Plan plan = make_plan(opt.seed, phases, opt.trace);
    r.fact("offered_rps", std::to_string(kOfferedRps));
    r.fact("shards", std::to_string(session->num_shards()));
    r.fact("mix", "Longformer-family 2x64, band 2x128+1, 1 global: n=256 20%, novel n>=257 "
                  "10%, n=512 40%, n=1024 20%; ViL-stage2 10%; 3 tenants, 25% batch priority");

    // The untraced phase gives the end-to-end metrics; a traced run then
    // sends a second phase traced.
    EndToEnd plain;
    plain.setup_s = setup_s;
    plain.setup_reps = setup_reps;
    plain.peak_reset = reset_peak_rss();
    const CpuWindow cpu;
    const PhaseResult first = run_phase(*session, plan, plan.phases[0], r, nullptr);
    plain.cpu_s = first.library_cpu_s;
    const double cpu_util = cpu.utilization();
    tally(plan, plan.phases[0], first, r, plain);
    std::uint64_t submitted = plan.phases[0].size();
    plain.cycles_per_token /= static_cast<double>(std::max<std::uint64_t>(1, plain.positions));
    add_end_to_end(r, plain, Targets{kLimitMs, 99.0});
    std::vector<double> lag;
    for (const Outcome& o : first.outcomes) lag.push_back(o.stamp.lag_ms());
    r.fact("gen_lag_ms_max", std::to_string(*std::max_element(lag.begin(), lag.end())));
    r.fact("cpu_util", std::to_string(cpu_util));
    if (!opt.trace) {
        session->drain();
        check_conservation(*session, submitted, r);
        return r;
    }

    Tracer tr;
    const std::vector<Request>& reqs = plan.phases[1];
    const PhaseResult traced = run_phase(*session, plan, reqs, r, &tr);
    EndToEnd traced_e;
    tally(plan, reqs, traced, r, traced_e);
    submitted += reqs.size();
    session->drain();
    check_conservation(*session, submitted, r);
    if (!opt.out_dir.empty()) write_trace(opt.out_dir + "/serve-mixed.csv", tr.spans());

    add_percentile(r, "admission.submit_us_p50", traced.submit_us, 50.0, "us");
    add_percentile(r, "admission.submit_us_p99", traced.submit_us, 99.0, "us");
    std::vector<double> engine_ms, overhead_ms, lag_ms, compile_ms;
    std::map<int, std::vector<double>> by_tenant;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Outcome& o = traced.outcomes[i];
        const Prepared& p = plan.prepared[reqs[i].prepared];
        lag_ms.push_back(o.stamp.lag_ms());
        if (reqs[i].novel) compile_ms.push_back(p.compile_ms);
        if (!o.ok) continue;
        engine_ms.push_back(p.engine_ms);
        overhead_ms.push_back(o.stamp.latency_ms() - p.engine_ms);
        by_tenant[reqs[i].tenant].push_back(o.stamp.latency_ms());
    }
    r.add("engine.request_ms", mean(engine_ms), "ms", engine_ms.size(),
          "mean warm standalone 1-thread run of each request");
    add_percentile(r, "session.overhead_ms_p50", overhead_ms, 50.0, "ms");
    add_percentile(r, "session.overhead_ms_p99", overhead_ms, 99.0, "ms");
    const SessionStats ss = session->stats();
    r.add("plan_cache.hit_ratio", ss.plan_cache.hit_rate(), "ratio",
          ss.plan_cache.hits + ss.plan_cache.misses);
    r.add("plan_cache.compiles", static_cast<double>(ss.plan_cache.compiles), "count", 1,
          "both phases, all shards, including set-up compiles");
    r.add("scheduler.compile_ms", mean(compile_ms), "ms", compile_ms.size(),
          "mean compile of the novel shapes");
    r.add("shard_router.retried", static_cast<double>(ss.retried), "count", 1);
    r.add("shard_router.failed_over", static_cast<double>(ss.failed_over), "count", 1);
    for (int t = 0; t < 3; ++t)
        add_percentile(r, std::string("fair_queue.tenant_p99_ms.") + kTenants[t], by_tenant[t],
                       99.0, "ms");
    add_percentile(r, "gen.lag_ms_p99", lag_ms, 99.0, "ms");

    SimStats all;
    std::size_t counted = 0;
    for (const Request& q : reqs) {
        all += plan.prepared[q.prepared].reference.stats;
        ++counted;
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, counted));
    r.add("sim.tiles", static_cast<double>(all.tiles) / n, "count", counted, "mean per request");
    r.add("sim.mac_ops", static_cast<double>(all.activity.mac_ops) / n, "count", counted,
          "mean per request");
    r.add("sim.exp_ops", static_cast<double>(all.activity.exp_ops) / n, "count", counted,
          "mean per request");
    r.add("sim.pe_utilization", all.activity.occupancy(), "ratio", counted,
          "valid_slots / array_slots");
    r.add("process.cpu_util", cpu_util, "ratio", 1, "untraced phase");
    const double plain_p50 = median(plain.latency_ms);
    r.add("trace.overhead_pct",
          plain_p50 > 0.0 ? (median(traced_e.latency_ms) / plain_p50 - 1.0) * 100.0 : 0.0, "%",
          reqs.size(), "traced vs untraced request p50");
    return r;
}

}  // namespace perfbench
