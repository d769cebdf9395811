// Overload-hardened serving: typed failure delivery, deadlines and
// cancellation (shed-before-dispatch and tile-boundary mid-flight),
// admission control (reject_fast / block_with_timeout / per-class caps),
// and the stats conservation law
//
//   completed + failed + rejected + timed_out + cancelled == submitted.
//
// The tests wedge the dispatcher deterministically with a FaultInjector
// stall on the first request, so later requests are provably still queued
// when they are shed/cancelled — probe injectors (tiles_seen() == 0) prove
// shed requests never reached the engine pool.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/salo.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

SaloConfig serving_config(int threads) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    c.num_threads = threads;
    return c;
}

/// An injector that sleeps at the first tile boundary of every head run —
/// the deterministic dispatcher wedge used to keep later requests queued.
std::shared_ptr<FaultInjector> stall_injector(milliseconds stall) {
    FaultInjector::Config c;
    c.stall_tiles = {0};
    c.stall_for = std::chrono::duration_cast<std::chrono::microseconds>(stall);
    return std::make_shared<FaultInjector>(c);
}

/// Trigger-free injector: counts tile-boundary visits only, so a test can
/// assert a request never executed (tiles_seen() == 0).
std::shared_ptr<FaultInjector> probe_injector() {
    return std::make_shared<FaultInjector>();
}

bool eventually(const std::function<bool()>& pred, milliseconds budget = milliseconds(2000)) {
    const Clock::time_point until = Clock::now() + budget;
    while (Clock::now() < until) {
        if (pred()) return true;
        std::this_thread::sleep_for(milliseconds(1));
    }
    return pred();
}

struct Work {
    AttentionWorkload w = longformer_small(64, 8, 1, 16, 1);
    QkvSet qkv;
    explicit Work(std::uint64_t seed = 7) : qkv(make_qkv(w, seed)) {}

    AttentionRequest request() const {
        return make_request(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
    }
};

void expect_conserved(const SessionStats& s) {
    EXPECT_EQ(s.accounted(), s.submitted)
        << "completed=" << s.completed << " failed=" << s.failed
        << " rejected=" << s.rejected << " timed_out=" << s.timed_out
        << " cancelled=" << s.cancelled;
}

// -------------------------------------------------------------------------
// AdmissionController: pure decision logic (no session needed).
// -------------------------------------------------------------------------

TEST(AdmissionController, UnboundedPolicyAdmitsEverything) {
    const AdmissionController ctl{AdmissionPolicy{}};
    EXPECT_FALSE(ctl.bounded());
    AdmissionSnapshot s;
    s.queued_interactive = 1000000;
    s.queued_batch = 1000000;
    s.outstanding_cost = ~0ull / 2;
    EXPECT_EQ(ctl.decide(s, Priority::interactive, 1), AdmissionDecision::admit);
    EXPECT_EQ(ctl.decide(s, Priority::batch, 1), AdmissionDecision::admit);
}

TEST(AdmissionController, DepthLimitWaitsOrRejectsByMode) {
    AdmissionPolicy p;
    p.max_queue = 4;
    AdmissionSnapshot s;
    s.queued_interactive = 4;

    p.mode = AdmissionMode::block;
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::wait);
    p.mode = AdmissionMode::block_with_timeout;
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::wait);
    p.mode = AdmissionMode::reject_fast;
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::reject);

    s.queued_interactive = 3;  // below the limit again
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::admit);
}

TEST(AdmissionController, BatchCapOnlyCapsBatchClass) {
    AdmissionPolicy p;
    p.mode = AdmissionMode::reject_fast;
    p.max_queue = 100;
    p.max_queue_batch = 2;
    const AdmissionController ctl(p);
    AdmissionSnapshot s;
    s.queued_batch = 2;
    EXPECT_EQ(ctl.decide(s, Priority::batch, 1), AdmissionDecision::reject);
    EXPECT_EQ(ctl.decide(s, Priority::interactive, 1), AdmissionDecision::admit);
}

TEST(AdmissionController, CostGateAdmitsALoneOversizedRequest) {
    AdmissionPolicy p;
    p.mode = AdmissionMode::reject_fast;
    p.max_outstanding_cost = 100;
    const AdmissionController ctl(p);
    AdmissionSnapshot idle;  // nothing queued or in flight
    EXPECT_EQ(ctl.decide(idle, Priority::interactive, 5000), AdmissionDecision::admit);
    AdmissionSnapshot busy;
    busy.outstanding_cost = 60;
    EXPECT_EQ(ctl.decide(busy, Priority::interactive, 50), AdmissionDecision::reject);
    EXPECT_EQ(ctl.decide(busy, Priority::interactive, 30), AdmissionDecision::admit);
}

// -------------------------------------------------------------------------
// Deadlines: shed-before-dispatch and tile-boundary mid-flight expiry.
// -------------------------------------------------------------------------

TEST(Robustness, AlreadyExpiredDeadlineIsShedAtSubmit) {
    const Work work;
    SaloSession session(serving_config(1));
    auto probe = probe_injector();
    AttentionRequest r = work.request();
    r.deadline = Clock::now() - milliseconds(1);
    r.fault_injector = probe;
    auto future = session.submit(std::move(r));
    EXPECT_THROW(future.get(), DeadlineExceeded);
    EXPECT_EQ(probe->tiles_seen(), 0u);  // never reached the engine
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.shed_expired, 1u);
    expect_conserved(s);
}

TEST(Robustness, DeadlineExpiredWhileQueuedIsShedBeforeDispatch) {
    const Work work;
    SaloSession session(serving_config(1));

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    // Queued behind the wedge with a deadline that expires during the stall.
    auto probe = probe_injector();
    AttentionRequest r = work.request();
    r.deadline = Clock::now() + milliseconds(50);
    r.fault_injector = probe;
    auto future = session.submit(std::move(r));

    EXPECT_EQ(first.get().output.count(), 1);  // the wedge itself completes
    EXPECT_THROW(future.get(), DeadlineExceeded);
    EXPECT_EQ(probe->tiles_seen(), 0u);  // shed before batching, not mid-run
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.shed_expired, 1u);
    expect_conserved(s);
}

TEST(Robustness, MidFlightDeadlineStopsAtTileBoundary) {
    const Work work;
    SaloSession session(serving_config(1));
    // The request itself stalls at its first tile past its own deadline, so
    // expiry is only observable at the next tile boundary.
    auto stall = stall_injector(milliseconds(150));
    AttentionRequest r = work.request();
    r.deadline = Clock::now() + milliseconds(50);
    r.fault_injector = stall;
    auto future = session.submit(std::move(r));
    EXPECT_THROW(future.get(), DeadlineExceeded);
    EXPECT_GE(stall->tiles_seen(), 1u);  // it did start executing
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.shed_expired, 0u);  // mid-flight expiry, not a queue shed
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Cancellation: pre-dispatch shed and tile-boundary mid-flight stop.
// -------------------------------------------------------------------------

TEST(Robustness, CancelledWhileQueuedNeverReachesEngine) {
    const Work work;
    SaloSession session(serving_config(1));

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    auto probe = probe_injector();
    CancellationToken token = CancellationToken::make();
    AttentionRequest r = work.request();
    r.cancel = token;
    r.fault_injector = probe;
    auto future = session.submit(std::move(r));
    token.request_cancel();

    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_THROW(future.get(), RequestCancelled);
    EXPECT_EQ(probe->tiles_seen(), 0u);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.cancelled, 1u);
    expect_conserved(s);
}

TEST(Robustness, MidFlightCancellationStopsAtTileBoundary) {
    const Work work;
    SaloSession session(serving_config(1));
    auto stall = stall_injector(milliseconds(300));
    CancellationToken token = CancellationToken::make();
    AttentionRequest r = work.request();
    r.cancel = token;
    r.fault_injector = stall;
    auto future = session.submit(std::move(r));
    // Cancel while the run is wedged inside its first tile; the next tile
    // boundary must observe the token.
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));
    token.request_cancel();
    EXPECT_THROW(future.get(), RequestCancelled);
    EXPECT_GE(stall->tiles_seen(), 1u);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.cancelled, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Admission control on a live session.
// -------------------------------------------------------------------------

TEST(Robustness, RejectFastShedsExcessWithQueueFull) {
    const Work work;
    SessionOptions options;
    options.admission.mode = AdmissionMode::reject_fast;
    options.admission.max_queue = 2;
    SaloSession session(serving_config(1), options);

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    auto ok1 = session.submit(work.request());   // queued: 1
    auto ok2 = session.submit(work.request());   // queued: 2 (limit)
    auto shed1 = session.submit(work.request());  // over: rejected fast
    auto shed2 = session.submit(work.request());
    EXPECT_THROW(shed1.get(), QueueFull);
    EXPECT_THROW(shed2.get(), QueueFull);
    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_EQ(ok1.get().output.count(), 1);
    EXPECT_EQ(ok2.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.rejected, 2u);
    expect_conserved(s);
}

TEST(Robustness, BlockWithTimeoutRejectsWhenNoSpaceOpens) {
    const Work work;
    SessionOptions options;
    options.admission.mode = AdmissionMode::block_with_timeout;
    options.admission.block_timeout = milliseconds(30);
    options.admission.max_queue = 1;
    SaloSession session(serving_config(1), options);

    auto stall = stall_injector(milliseconds(400));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    auto queued = session.submit(work.request());  // fills the queue
    const Clock::time_point t0 = Clock::now();
    auto blocked = session.submit(work.request());  // waits 30ms, then sheds
    const milliseconds waited =
        std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_GE(waited.count(), 25);   // it did block...
    EXPECT_LT(waited.count(), 350);  // ...but gave up long before the wedge cleared
    EXPECT_THROW(blocked.get(), QueueFull);
    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_EQ(queued.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.rejected, 1u);
    expect_conserved(s);
}

TEST(Robustness, BatchClassCapShedsBatchButAdmitsInteractive) {
    const Work work;
    SessionOptions options;
    options.admission.mode = AdmissionMode::reject_fast;
    options.admission.max_queue = 10;
    options.admission.max_queue_batch = 1;
    SaloSession session(serving_config(1), options);

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    AttentionRequest b1 = work.request();
    b1.priority = Priority::batch;
    auto batch_ok = session.submit(std::move(b1));  // batch queue: 1 (cap)
    AttentionRequest b2 = work.request();
    b2.priority = Priority::batch;
    auto batch_shed = session.submit(std::move(b2));  // over the class cap
    auto interactive_ok = session.submit(work.request());  // unaffected

    EXPECT_THROW(batch_shed.get(), QueueFull);
    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_EQ(batch_ok.get().output.count(), 1);
    EXPECT_EQ(interactive_ok.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.rejected, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Injected stalls observe deadlines: a wedged tile can delay a request but
// never hold it past its deadline (regression — stalls used to sleep the
// full configured duration regardless).
// -------------------------------------------------------------------------

TEST(Robustness, InjectedStallIsCutShortByTheDeadline) {
    FaultInjector::Config c;
    c.stall_tiles = {0};
    c.stall_for = std::chrono::duration_cast<std::chrono::microseconds>(
        milliseconds(10000));
    const FaultInjector injector(c);
    const Clock::time_point t0 = Clock::now();
    EXPECT_THROW(injector.on_tile(0, t0 + milliseconds(20)), DeadlineExceeded);
    const milliseconds took = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 2000);  // nowhere near the 10 s stall
    EXPECT_EQ(injector.stalls_injected(), 1u);
}

TEST(Robustness, InjectedStallIsCutShortByCancellation) {
    FaultInjector::Config c;
    c.stall_tiles = {0};
    c.stall_for = std::chrono::duration_cast<std::chrono::microseconds>(
        milliseconds(10000));
    const FaultInjector injector(c);
    CancellationToken token = CancellationToken::make();
    token.request_cancel();
    const Clock::time_point t0 = Clock::now();
    EXPECT_THROW(injector.on_tile(0, std::nullopt, &token), RequestCancelled);
    const milliseconds took = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 2000);
}

TEST(Robustness, StalledRequestResolvesAtItsDeadlineNotTheStall) {
    const Work work;
    SaloSession session(serving_config(1));
    // The request wedges at its first tile for 10 s but carries a 50 ms
    // deadline: it must fail DeadlineExceeded on the deadline's timescale.
    auto stall = stall_injector(milliseconds(10000));
    AttentionRequest r = work.request();
    r.deadline = Clock::now() + milliseconds(50);
    r.fault_injector = stall;
    const Clock::time_point t0 = Clock::now();
    auto future = session.submit(std::move(r));
    EXPECT_THROW(future.get(), DeadlineExceeded);
    const milliseconds took = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 5000);  // deadline timescale, not the 10 s wedge
    EXPECT_GE(stall->tiles_seen(), 1u);  // it did reach the engine
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.timed_out, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Robustness hooks on the engine's head path: a multi-head run on several
// threads spreads whole heads over the pool lanes, a single head runs its
// tile loop on the calling thread, and a hook that fires in one head fails
// the run from the calling thread, typed, while the engine stays
// serviceable and bit-identical for the next run.
// -------------------------------------------------------------------------

struct HeadPathRun {
    explicit HeadPathRun(int heads = 4) : w(longformer_small(64, 8, heads, 16, 1)) {}

    AttentionWorkload w;
    QkvSet qkv = make_qkv(w, 21);
    SaloEngine engine{serving_config(4)};
    CompiledPlanPtr plan = engine.compile(w.pattern, w.head_dim);
    LayerResult reference = SaloEngine(serving_config(1)).run(*plan, qkv.q, qkv.k, qkv.v,
                                                              w.scale());

    LayerResult run(const RunOptions& options) const {
        return engine.run(*plan, qkv.q, qkv.k, qkv.v, w.scale(), options);
    }

    void expect_next_run_bit_identical() const {
        const LayerResult next = run(RunOptions{});
        ASSERT_EQ(next.output.count(), reference.output.count());
        for (int h = 0; h < next.output.count(); ++h)
            EXPECT_EQ(next.output[h], reference.output[h]) << "head " << h;
        EXPECT_EQ(next.stats.cycles, reference.stats.cycles);
        EXPECT_EQ(next.stats.tiles, reference.stats.tiles);
        EXPECT_EQ(next.stats.activity.mac_ops, reference.stats.activity.mac_ops);
        EXPECT_EQ(next.stats.activity.pe_cycles, reference.stats.activity.pe_cycles);
    }
};

TEST(EngineHeadPath, OneFaultedTileFailsTheRunAndSiblingHeadsFinish) {
    const HeadPathRun r;
    const int tiles = static_cast<int>(r.plan->plan().tiles.size());
    ASSERT_GE(tiles, 4);
    // The injector sees per-head schedule-order tile indices, not head
    // ids: tile 2 faults in whichever head reaches it first (lanes racing
    // the cap may fault one more). Each faulted head stops at tile 2; the
    // other heads run every tile.
    const int fault_tile = 2;
    FaultInjector::Config c;
    c.fault_tiles = {fault_tile};
    c.max_faults = 1;
    const FaultInjector injector(c);
    RunOptions options;
    options.fault_injector = &injector;
    EXPECT_THROW(r.run(options), EngineFault);
    const std::uint64_t faulted = injector.faults_injected();
    ASSERT_GE(faulted, 1u);
    EXPECT_EQ(injector.tiles_seen(),
              static_cast<std::uint64_t>(r.w.heads * tiles) -
                  faulted * static_cast<std::uint64_t>(tiles - 1 - fault_tile));
    r.expect_next_run_bit_identical();
}

TEST(EngineHeadPath, OneHeadStopsAtItsFaultedTileOnAMultiThreadEngine) {
    // A 1-head layer on a 4-thread engine runs its tiles in schedule order
    // on the calling thread, so the faulted tile is the last one run.
    const HeadPathRun r(1);
    const int tiles = static_cast<int>(r.plan->plan().tiles.size());
    ASSERT_GE(tiles, 8);
    const int fault_tile = 3;
    FaultInjector::Config c;
    c.fault_tiles = {fault_tile};
    c.max_faults = 1;
    const FaultInjector injector(c);
    RunOptions options;
    options.fault_injector = &injector;
    EXPECT_THROW(r.run(options), EngineFault);
    EXPECT_EQ(injector.faults_injected(), 1u);
    EXPECT_EQ(injector.tiles_seen(), static_cast<std::uint64_t>(fault_tile + 1));
    r.expect_next_run_bit_identical();
}

TEST(EngineHeadPath, PreCancelledTokenThrowsRequestCancelled) {
    const HeadPathRun r;
    RunOptions options;
    options.cancel = CancellationToken::make();
    options.cancel.request_cancel();
    EXPECT_THROW(r.run(options), RequestCancelled);
    r.expect_next_run_bit_identical();
}

TEST(EngineHeadPath, PastDeadlineThrowsDeadlineExceeded) {
    const HeadPathRun r;
    RunOptions options;
    options.deadline = Clock::now() - milliseconds(1);
    EXPECT_THROW(r.run(options), DeadlineExceeded);
    r.expect_next_run_bit_identical();
}

// -------------------------------------------------------------------------
// The extended conservation law on the sharded tier: per-attempt retry
// counters live outside the law, and every outcome class still sums to
// submitted under a mixed fault/cancel/deadline/reject stream.
// -------------------------------------------------------------------------

TEST(Robustness, PlainSessionReportsZeroShardCounters) {
    const Work work;
    SaloSession session(serving_config(1));
    EXPECT_EQ(session.submit(work.request()).get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.retried, 0u);
    EXPECT_EQ(s.failed_over, 0u);
    EXPECT_EQ(s.quarantined_shard_events, 0u);
    EXPECT_EQ(s.reintegrated_shard_events, 0u);
    expect_conserved(s);
}

TEST(Robustness, ShardedTierConservationUnderMixedOutcomes) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 3;
    ShardedSession tier(serving_config(1), options);

    std::vector<std::future<LayerResult>> futures;
    // 6 clean requests.
    for (int i = 0; i < 6; ++i) futures.push_back(tier.submit(work.request()));
    // 4 transient faults: complete after exactly one retry each.
    for (int i = 0; i < 4; ++i) {
        FaultInjector::Config c;
        c.fault_tiles = {0};
        c.max_faults = 1;
        AttentionRequest r = work.request();
        r.fault_injector = std::make_shared<FaultInjector>(c);
        futures.push_back(tier.submit(std::move(r)));
    }
    // 2 hard failures: every attempt faults, the retry budget exhausts.
    for (int i = 0; i < 2; ++i) {
        FaultInjector::Config c;
        c.fault_tiles = {0};
        AttentionRequest r = work.request();
        r.fault_injector = std::make_shared<FaultInjector>(c);
        futures.push_back(tier.submit(std::move(r)));
    }
    // 2 cancelled before dispatch could matter.
    for (int i = 0; i < 2; ++i) {
        CancellationToken token = CancellationToken::make();
        token.request_cancel();
        AttentionRequest r = work.request();
        r.cancel = token;
        futures.push_back(tier.submit(std::move(r)));
    }
    // 2 already expired: shed at admission.
    for (int i = 0; i < 2; ++i) {
        AttentionRequest r = work.request();
        r.deadline = Clock::now() - milliseconds(1);
        futures.push_back(tier.submit(std::move(r)));
    }

    int completed = 0, failed = 0, cancelled = 0, timed_out = 0;
    for (auto& f : futures) {
        try {
            f.get();
            ++completed;
        } catch (const EngineFault&) {
            ++failed;
        } catch (const RequestCancelled&) {
            ++cancelled;
        } catch (const DeadlineExceeded&) {
            ++timed_out;
        }
    }
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.submitted, 16u);
    EXPECT_EQ(s.completed, 10u);
    EXPECT_EQ(s.failed, 2u);
    EXPECT_EQ(s.cancelled, 2u);
    EXPECT_EQ(s.timed_out, 2u);
    EXPECT_EQ(s.rejected, 0u);
    expect_conserved(s);
    EXPECT_EQ(completed, 10);
    EXPECT_EQ(failed, 2);
    EXPECT_EQ(cancelled, 2);
    EXPECT_EQ(timed_out, 2);
    // Per-attempt counters: 4 single-retry completions plus 2 exhausted
    // requests at 2 retries each; failover never exceeds the retry count.
    EXPECT_EQ(s.retried, 8u);
    EXPECT_LE(s.failed_over, s.retried);
    EXPECT_GE(s.failed_over, 1u);
}

TEST(Robustness, MaxQueueStillBlocksUntilSpace) {
    // A depth-only bound in the default block mode: submits past the bound
    // wait and are eventually served, never rejected.
    const Work work;
    SessionOptions options;
    options.admission.max_queue = 1;
    SaloSession session(serving_config(1), options);
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < 6; ++i) futures.push_back(session.submit(work.request()));
    for (auto& f : futures) EXPECT_EQ(f.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 6u);
    EXPECT_EQ(s.rejected, 0u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// The one admission gate, driven through all three front doors: a submitter
// parked in block mode behind a wedged engine is released by close() or by
// its own deadline — never only once the wedge clears.
// -------------------------------------------------------------------------

/// One front door behind a type-erased submit. `stream` picks the decode
/// stream (0..2); the whole-sequence doors ignore it. The returned call
/// waits for the outcome and rethrows its error.
class Door {
public:
    virtual ~Door() = default;
    virtual std::function<void()> submit(int stream, std::shared_ptr<const FaultInjector> fault,
                                         CancellationToken cancel,
                                         std::optional<Clock::time_point> deadline) = 0;
    virtual void close() = 0;
    virtual SessionStats stats() const = 0;
};

template <typename Session>
class RequestDoor : public Door {
public:
    template <typename Options>
    explicit RequestDoor(Options options) : session_(serving_config(1), std::move(options)) {}

    std::function<void()> submit(int, std::shared_ptr<const FaultInjector> fault,
                                 CancellationToken cancel,
                                 std::optional<Clock::time_point> deadline) override {
        AttentionRequest r = work_.request();
        r.fault_injector = std::move(fault);
        r.cancel = cancel;
        r.deadline = deadline;
        auto f = std::make_shared<std::future<LayerResult>>(session_.submit(std::move(r)));
        return [f] { f->get(); };
    }
    void close() override { session_.close(); }
    SessionStats stats() const override { return session_.stats(); }

private:
    Work work_;
    Session session_;
};

class StepDoor : public Door {
public:
    explicit StepDoor(DecodeSessionOptions options)
        : session_(serving_config(1), std::move(options)) {
        for (int i = 0; i < 3; ++i)
            streams_.push_back(session_.open_stream(pattern_, 1, 16, 0.25f));
    }

    std::function<void()> submit(int stream, std::shared_ptr<const FaultInjector> fault,
                                 CancellationToken cancel,
                                 std::optional<Clock::time_point> deadline) override {
        StepRequest r;
        r.q_row = r.k_row = r.v_row = Matrix<float>(1, 16, 0.5f);
        r.fault_injector = std::move(fault);
        r.cancel = cancel;
        r.deadline = deadline;
        auto f = std::make_shared<std::future<StepResult>>(
            session_.step(streams_[static_cast<std::size_t>(stream)], std::move(r)));
        return [f] { f->get(); };
    }
    void close() override { session_.close(); }
    SessionStats stats() const override { return session_.stats(); }

private:
    HybridPattern pattern_{64, {Band{-7, 8, 1, 0}}, {}};
    DecodeSession session_;
    std::vector<StreamId> streams_;
};

struct DoorCase {
    const char* name;
    bool decode;
    std::function<std::unique_ptr<Door>(const AdmissionPolicy&)> make;
};

std::vector<DoorCase> door_cases() {
    return {
        {"SaloSession", false,
         [](const AdmissionPolicy& p) -> std::unique_ptr<Door> {
             SessionOptions o;
             o.admission = p;
             return std::make_unique<RequestDoor<SaloSession>>(o);
         }},
        {"ShardedSession", false,
         [](const AdmissionPolicy& p) -> std::unique_ptr<Door> {
             ShardedSessionOptions o;
             o.num_shards = 1;
             o.router_workers = 1;
             o.admission = p;
             return std::make_unique<RequestDoor<ShardedSession>>(o);
         }},
        {"DecodeSession", true,
         [](const AdmissionPolicy& p) -> std::unique_ptr<Door> {
             DecodeSessionOptions o;
             o.admission = p;
             return std::make_unique<StepDoor>(o);
         }},
    };
}

TEST(AdmissionGate, ParkedSubmitterIsReleasedByCloseOrByItsDeadline) {
    AdmissionPolicy policy;  // block mode: over the limit, a submit waits
    policy.max_queue = 1;
    for (const DoorCase& door_case : door_cases()) {
        for (const bool by_close : {true, false}) {
            SCOPED_TRACE(std::string(door_case.name) + (by_close ? ", closed while parked"
                                                                 : ", 20 ms deadline"));
            const std::unique_ptr<Door> door = door_case.make(policy);
            // Wedge the only engine lane for 2 s, then fill the one queue slot.
            auto stall = stall_injector(milliseconds(2000));
            const CancellationToken unwedge = CancellationToken::make();
            const auto wedge = door->submit(0, stall, unwedge, std::nullopt);
            ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));
            const auto queued = door->submit(1, nullptr, {}, std::nullopt);

            const Clock::time_point t0 = Clock::now();
            std::future<void> closing;
            if (by_close) {
                auto submitting = std::async(std::launch::async, [&] {
                    return door->submit(2, nullptr, {}, std::nullopt);
                });
                ASSERT_EQ(submitting.wait_for(milliseconds(50)), std::future_status::timeout)
                    << "the third submit did not park";
                closing = std::async(std::launch::async, [&] { door->close(); });
                EXPECT_THROW(submitting.get()(), SessionClosed);
            } else {
                const auto parked = door->submit(2, nullptr, {}, Clock::now() + milliseconds(20));
                EXPECT_THROW(parked(), DeadlineExceeded);
            }
            const auto waited = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
            EXPECT_LT(waited.count(), 1000) << "the parked submit waited out the 2 s wedge";

            const SessionStats s = door->stats();
            EXPECT_EQ(s.rejected, by_close ? 1u : 0u);
            EXPECT_EQ(s.timed_out, by_close ? 0u : 1u);
            EXPECT_EQ(s.shed_expired, by_close ? 0u : 1u);
            // Decode: the parked step's stream is evicted (a skipped
            // position would break its append log).
            EXPECT_EQ(s.evicted_streams, door_case.decode ? 1u : 0u);
            if (door_case.decode && !by_close) {
                EXPECT_THROW(door->submit(2, nullptr, {}, std::nullopt)(), StreamEvicted);
            }

            unwedge.request_cancel();
            EXPECT_THROW(wedge(), RequestCancelled);
            EXPECT_NO_THROW(queued());
            if (closing.valid())
                closing.get();
            else
                door->close();
            const SessionStats end = door->stats();
            EXPECT_EQ(end.submitted, by_close || !door_case.decode ? 3u : 4u);
            expect_conserved(end);
        }
    }
}

TEST(OutcomeLedger, TenantsSumToTheGlobalViewAndOverResolvingThrows) {
    OutcomeLedger ledger;
    ledger.submit("a");
    ledger.submit("a");
    ledger.submit("b", /*step=*/true);
    ledger.resolve("a", Outcome::completed);
    ledger.resolve("a", Outcome::shed_expired);
    ledger.resolve("b", Outcome::failed);
    const SessionStats s = ledger.stats();
    EXPECT_EQ(s.submitted, 3u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.shed_expired, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.steps, 1u);
    expect_conserved(s);
    const auto tenants = ledger.tenant_stats();
    EXPECT_EQ(tenants.at("a").timed_out, 1u);
    EXPECT_EQ(tenants.at("b").steps, 1u);

    // An outcome nobody submitted is an accounting bug: both views name
    // the tenant, in release builds too.
    ledger.resolve("c", Outcome::completed);
    try {
        (void)ledger.stats();
        ADD_FAILURE() << "stats() accepted a tenant that resolved more than it submitted";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("'c'"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)ledger.tenant_stats(), ContractViolation);
}

}  // namespace
}  // namespace salo
