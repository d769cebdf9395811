// SaloSession: the request-serving front end of the engine.
//
// A session turns the one-shot, synchronous engine into a queue-centric
// server: callers submit AttentionRequests (a compiled plan or a pattern,
// plus Q/K/V) and immediately receive a std::future<LayerResult>. A
// dispatcher thread drains the queues in arrival order (interactive class
// before batch class) and batches all currently-queued requests onto the
// engine's persistent worker pool:
//
//   * a batch of one (an idle server) executes with the full lane budget —
//     the request's heads spread over the lanes (its tiles, when it has a
//     single head);
//   * a batch of many heterogeneous requests (different patterns, sequence
//     lengths, fidelities) executes request-parallel — each request runs
//     the pure sequential path on one pool lane, so the pool is busy with
//     real work instead of fork/join barriers.
//
// Determinism: both shapes are bit-identical to the sequential
// SaloEngine::run of the same request (the engine guarantee), so a serving
// deployment can replay any request standalone and get the same bits.
//
// Robustness (docs/API.md "Failure semantics"):
//
//   * every asynchronous failure is a typed SaloError delivered through
//     the future; submit() itself throws only SessionClosed (lifecycle)
//     and ContractViolation (malformed request);
//   * requests may carry an absolute deadline and a CancellationToken; the
//     dispatcher sheds already-expired/cancelled requests before batching
//     (DeadlineExceeded / RequestCancelled, never touching the engine),
//     and in-flight runs check the token at tile boundaries so cancelled
//     work stops early — completed requests keep bit-identity;
//   * admission control (core/admission.hpp) bounds the queue by depth,
//     batch-class depth and outstanding cost; over-limit submits block,
//     block-with-timeout, or reject fast with QueueFull per the policy;
//   * one faulted request (see common/fault_injector.hpp) fails only its
//     own future — the rest of the batch completes and the session keeps
//     serving.
//
// Plans are resolved through the engine's PlanCache: a request that carries
// only a pattern compiles it on first sight and hits the cache afterwards —
// repeated layers never re-run the scheduler, and concurrent first sights
// of one shape run the scheduler exactly once.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/engine.hpp"

namespace salo {

/// One unit of serving work: a multi-head attention layer.
struct AttentionRequest {
    /// Pre-compiled plan (preferred: shareable, zero scheduler work). May
    /// be null if `pattern` is set, in which case the session compiles the
    /// pattern through the engine's PlanCache.
    CompiledPlanPtr plan;
    std::optional<HybridPattern> pattern;

    Tensor3<float> q, k, v;  ///< [heads][n][head_dim]
    float scale = 1.0f;      ///< typically 1/sqrt(head_dim)

    /// Per-request fidelity override (e.g. a golden-oracle request on a
    /// functional-fidelity session). Defaults to the engine's fidelity.
    std::optional<Fidelity> fidelity;

    /// Admission class: interactive requests dispatch first and get the
    /// full queue budget; batch requests shed first under overload.
    Priority priority = Priority::interactive;

    /// Owning tenant for fair scheduling and per-tenant quotas in the
    /// sharded tier (core/fair_queue.hpp). Empty = the default tenant;
    /// single-tenant sessions and plain SaloSession ignore it entirely.
    std::string tenant_id;

    /// Absolute deadline. Expired requests never reach the engine pool:
    /// they are shed at dispatch and their future fails with
    /// DeadlineExceeded; mid-flight expiry stops at the next tile boundary.
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /// Shareable cancel flag (CancellationToken::make()); fires
    /// RequestCancelled. Inert by default.
    CancellationToken cancel;

    /// Per-request fault injection (tests); overrides the engine-level
    /// SaloConfig::fault_injector for this request only.
    std::shared_ptr<const FaultInjector> fault_injector;
};

/// Convenience builders for the two request flavours.
AttentionRequest make_request(CompiledPlanPtr plan, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale);
AttentionRequest make_request(HybridPattern pattern, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale);

struct SessionOptions {
    /// Legacy bound: maximum queued (not yet dispatched) requests with the
    /// block-forever policy. Ignored when `admission.max_queue` is set.
    /// 0 = unbounded.
    std::size_t max_queue = 0;
    /// Maximum requests dispatched as one batch. 0 = drain everything
    /// queued (latency-oriented streams may prefer a small bound).
    std::size_t max_batch = 0;
    /// Admission control policy (depth/cost/per-class limits and what to
    /// do when they are hit). Default: unbounded, block mode — exactly the
    /// legacy behavior.
    AdmissionPolicy admission;
};

struct SessionStats {
    std::uint64_t submitted = 0;  ///< accepted submit() calls (everything below)
    std::uint64_t completed = 0;  ///< futures fulfilled with a result
    std::uint64_t failed = 0;     ///< futures failed with EngineFault/ContractViolation
    std::uint64_t rejected = 0;   ///< futures failed with QueueFull (admission shed)
    std::uint64_t timed_out = 0;  ///< futures failed with DeadlineExceeded
    std::uint64_t cancelled = 0;  ///< futures failed with RequestCancelled
    /// Of timed_out: requests shed while queued, before any execution (the
    /// remainder expired at a tile boundary mid-flight).
    std::uint64_t shed_expired = 0;
    std::uint64_t batches = 0;    ///< dispatcher wake-ups that served work
    std::size_t max_batch = 0;    ///< largest batch observed
    PlanCacheStats plan_cache;    ///< the engine cache serving this session

    // Sharded-tier counters (core/shard_router.hpp); always 0 on a plain
    // single-engine SaloSession. retried/failed_over count *attempts* (one
    // request retried twice contributes 2) and live outside the
    // conservation law by construction.
    std::uint64_t retried = 0;      ///< re-dispatches after a retryable shard failure
    std::uint64_t failed_over = 0;  ///< of retried: attempts routed to a different shard
    std::uint64_t quarantined_shard_events = 0;   ///< breaker healthy -> quarantined
    std::uint64_t reintegrated_shard_events = 0;  ///< breaker probing -> healthy

    // Decode-tier counters (core/decode_session.hpp); always 0 on the
    // whole-sequence sessions. `steps` counts accepted stream steps, so the
    // conservation law distinguishes incremental decode traffic (where
    // every submission is a step: steps == submitted) from whole-sequence
    // requests (steps == 0).
    std::uint64_t steps = 0;            ///< accepted decode stream steps
    std::uint64_t evicted_streams = 0;  ///< streams lost to quarantine/failed steps

    /// Every accepted submit() resolves exactly one way; this is the
    /// conservation law tests assert.
    std::uint64_t accounted() const {
        return completed + failed + rejected + timed_out + cancelled;
    }
};

/// Per-tenant slice of the serving counters (core/shard_router.hpp:
/// ShardedSession::tenant_stats()). Obeys the same conservation law as
/// SessionStats; summing every tenant's counters reproduces the global
/// stats for the fields below.
struct TenantStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;   ///< shed against this tenant's own quota or the global one
    std::uint64_t timed_out = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t retried = 0;    ///< extra attempts billed to this tenant's deficit
    std::uint64_t failed_over = 0;
    /// Of submitted: decode stream steps (core/decode_session.hpp). 0 for
    /// whole-sequence traffic; == submitted on a pure decode tier.
    std::uint64_t steps = 0;

    std::uint64_t accounted() const {
        return completed + failed + rejected + timed_out + cancelled;
    }
};

class SaloSession {
public:
    explicit SaloSession(const SaloConfig& config = {}, SessionOptions options = {});
    ~SaloSession();  // close()

    SaloSession(const SaloSession&) = delete;
    SaloSession& operator=(const SaloSession&) = delete;

    /// Enqueue a request; the future resolves when it has been executed
    /// (or failed — every asynchronous failure is a typed SaloError
    /// delivered through the future, see core/errors.hpp). Thread-safe.
    /// Blocking behavior under a full queue follows the admission policy
    /// (block / block-with-timeout / reject-fast). Throws ContractViolation
    /// on a structurally invalid request and SessionClosed after close().
    std::future<LayerResult> submit(AttentionRequest request);

    /// submit(make_request(...)) shorthands.
    std::future<LayerResult> submit(CompiledPlanPtr plan, Tensor3<float> q,
                                    Tensor3<float> k, Tensor3<float> v, float scale);
    std::future<LayerResult> submit(const HybridPattern& pattern, Tensor3<float> q,
                                    Tensor3<float> k, Tensor3<float> v, float scale);

    /// Compile through the session engine's PlanCache (shared artifact).
    CompiledPlanPtr compile(const HybridPattern& pattern, int head_dim) const;

    /// Block until every submitted request has been served.
    void drain();

    /// Stop accepting requests, serve what is queued, join the dispatcher.
    /// Idempotent; the destructor calls it.
    void close();

    SessionStats stats() const;
    const SaloEngine& engine() const { return engine_; }
    const SaloConfig& config() const { return engine_.config(); }

private:
    using Clock = std::chrono::steady_clock;

    struct Pending {
        AttentionRequest request;
        std::promise<LayerResult> promise;
        std::uint64_t cost = 0;  ///< admission cost units (heads x rows)
    };

    /// Per-batch outcome tallies, merged into the counters by serve_loop.
    struct BatchTally {
        std::uint64_t ok = 0;
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t timed_out = 0;
    };

    void serve_loop();
    void serve_batch(std::vector<Pending>& batch, BatchTally& tally);
    AdmissionSnapshot snapshot_locked() const;

    SaloEngine engine_;
    SessionOptions options_;
    AdmissionController admission_;

    mutable std::mutex m_;
    std::condition_variable cv_work_;   ///< queue became non-empty / closing
    std::condition_variable cv_space_;  ///< admission state changed
    std::condition_variable cv_idle_;   ///< queue empty and nothing in flight
    std::deque<Pending> queue_interactive_;
    std::deque<Pending> queue_batch_;
    std::uint64_t queued_cost_ = 0;
    std::uint64_t in_flight_cost_ = 0;
    std::size_t in_flight_ = 0;
    /// Submitters parked in an admission wait (counted in submitted_ but
    /// not yet resolved); close() skips the conservation debug-assert
    /// while any exist, since their accounting is legitimately in flight.
    std::size_t waiting_submits_ = 0;
    bool closed_ = false;

    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t timed_out_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t shed_expired_ = 0;
    std::uint64_t batches_ = 0;
    std::size_t max_batch_seen_ = 0;
    /// Decode steps served by this session: always 0 (SaloSession has no
    /// step path); reported through stats() and asserted at close() so the
    /// conservation law separates steps from whole-sequence requests.
    std::uint64_t stats_steps_ = 0;

    std::thread dispatcher_;  ///< last member: joined by close()
};

}  // namespace salo
