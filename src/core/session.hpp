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
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/engine.hpp"
#include "core/serving_core.hpp"

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

/// Admission cost units of a request: heads x rows. Execution time scales
/// with the scheduled tiles, which scale with heads x rows for a pattern
/// family, so a few huge requests cannot hide behind a small queue depth.
inline std::uint64_t request_cost(const AttentionRequest& r) {
    return static_cast<std::uint64_t>(r.q.count()) * static_cast<std::uint64_t>(r.q.rows());
}

/// Convenience builders for the two request flavours.
AttentionRequest make_request(CompiledPlanPtr plan, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale);
AttentionRequest make_request(HybridPattern pattern, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale);

struct SessionOptions {
    /// Maximum requests dispatched as one batch. 0 = drain everything
    /// queued (latency-oriented streams may prefer a small bound).
    std::size_t max_batch = 0;
    /// Admission control policy (depth/cost/per-class limits and what to
    /// do when they are hit). Default: unbounded, block mode.
    AdmissionPolicy admission;
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
    void close() { core_.close(); }

    SessionStats stats() const;
    const SaloEngine& engine() const { return engine_; }
    const SaloConfig& config() const { return engine_.config(); }

private:
    using Pending = Queued<AttentionRequest, LayerResult>;

    void serve_loop();
    /// Run a batch; outcome[i] is batch[i]'s.
    void serve_batch(std::vector<Pending>& batch, std::vector<Outcome>& outcome);

    SaloEngine engine_;
    SessionOptions options_;
    AdmissionController admission_;

    // Guarded by core_.m.
    std::deque<Pending> queue_interactive_;
    std::deque<Pending> queue_batch_;
    std::uint64_t queued_cost_ = 0;
    ServingCore core_;  ///< last: its dispatcher uses the members above
};

}  // namespace salo
