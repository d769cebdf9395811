// ServingCore: the serving mechanics the three front doors share. SaloSession
// (batched dispatcher), ShardedSession (router workers with retry and
// failover) and DecodeSession (per-stream ordered dispatcher) keep only their
// queues and dispatch policy; the rest lives here, once:
//
//   * OutcomeLedger — each accepted submission resolves to one Outcome,
//     counted per tenant; SessionStats and TenantStats are read from it and
//     the global counters are the sum over tenants, so the two views agree
//     by construction;
//   * ServingCore::admit — the one admission wait loop;
//   * guarded() — the one classifier of what an engine call throws;
//   * ServingCore::serve / close / drain — one closed flag, the door
//     threads' loop and their join protocol.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "core/admission.hpp"
#include "core/engine.hpp"
#include "core/health.hpp"

namespace salo {

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

/// Per-tenant slice of the serving counters (ShardedSession::tenant_stats(),
/// DecodeSession::tenant_stats()). Obeys the same conservation law as
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

/// How one accepted submission resolved. shed_expired is a timed_out that
/// never executed (expired while waiting for admission or in a queue).
enum class Outcome { completed, failed, rejected, timed_out, shed_expired, cancelled };

/// Per-tenant outcome counters. Not synchronized: the owning door calls
/// every member under its ServingCore::m.
class OutcomeLedger {
public:
    /// One accepted submission of `tenant`; `step` marks a decode step.
    void submit(const std::string& tenant, bool step = false) {
        Tenant& t = tenants_[tenant];
        ++t.submitted;
        t.steps += step ? 1 : 0;
    }
    /// Count the one outcome of an accepted submission.
    void resolve(const std::string& tenant, Outcome o) {
        ++tenants_[tenant].resolved[static_cast<std::size_t>(o)];
    }
    void retried(const std::string& tenant) { ++tenants_[tenant].retried; }
    void failed_over(const std::string& tenant) { ++tenants_[tenant].failed_over; }
    void batch(std::size_t size) {
        ++batches_;
        max_batch_ = std::max(max_batch_, size);
    }
    void evicted_stream() { ++evicted_streams_; }

    /// Both views check that no tenant resolved more than it submitted and
    /// throw ContractViolation naming the tenant otherwise.
    SessionStats stats() const;
    std::map<std::string, TenantStats> tenant_stats() const;
    /// Debug builds: every tenant's submissions all resolved, and are all
    /// decode steps or none of them are.
    void debug_check_conserved() const;

private:
    struct Tenant {
        std::uint64_t submitted = 0;
        std::uint64_t steps = 0;
        std::uint64_t retried = 0;
        std::uint64_t failed_over = 0;
        std::array<std::uint64_t, 6> resolved{};  ///< indexed by Outcome

        std::uint64_t at(Outcome o) const { return resolved[static_cast<std::size_t>(o)]; }
        TenantStats stats(const std::string& name) const;
    };

    std::map<std::string, Tenant> tenants_;
    std::uint64_t batches_ = 0;
    std::size_t max_batch_ = 0;
    std::uint64_t evicted_streams_ = 0;
};

/// What the admission gate made of one submission.
enum class Admission {
    admitted,
    closed,          ///< the door closed before or while it waited
    expired,         ///< the request's own deadline passed first
    rejected,        ///< the door's decision shed it
    wait_timed_out,  ///< the wait budget ran out with no space
    withdrawn,       ///< the door's re-check pulled it while it waited
};

/// A policy's admission wait bound: block_timeout in block_with_timeout
/// mode, none (wait for space) otherwise.
inline std::optional<std::chrono::steady_clock::duration> wait_budget(const AdmissionPolicy& p) {
    if (p.mode != AdmissionMode::block_with_timeout) return std::nullopt;
    return p.block_timeout;
}

template <typename T, typename Error>
void fail_promise(std::promise<T>& promise, Error error) {
    promise.set_exception(std::make_exception_ptr(std::move(error)));
}

/// One accepted submission waiting in a door's queue.
template <typename Request, typename Result>
struct Queued {
    Request request;
    std::promise<Result> promise;
    std::uint64_t cost = 0;  ///< admission cost units
};

/// The engine run options of a request (AttentionRequest, StepRequest).
template <typename Request>
RunOptions run_options(const Request& r, int thread_budget) {
    RunOptions o;
    o.fidelity = r.fidelity;
    o.thread_budget = thread_budget;
    o.cancel = r.cancel;
    o.deadline = r.deadline;
    o.fault_injector = r.fault_injector.get();
    return o;
}

/// Queued work that must never reach an engine, in check order: cancelled,
/// then expired. Fails the promise with the door's text and returns the
/// outcome; nullopt = dispatch it.
template <typename T>
std::optional<Outcome> shed_queued(
    std::promise<T>& promise, const CancellationToken& cancel,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::chrono::steady_clock::time_point now, const char* cancelled_text,
    const char* expired_text) {
    if (cancel.cancelled()) {
        fail_promise(promise, RequestCancelled(cancelled_text));
        return Outcome::cancelled;
    }
    if (deadline && now > *deadline) {
        fail_promise(promise, DeadlineExceeded(expired_text));
        return Outcome::shed_expired;
    }
    return std::nullopt;
}

/// How one engine call ended: the outcome to count, the verdict for the
/// shard's breaker, and the error to deliver (null on success).
struct Classified {
    Outcome outcome = Outcome::completed;
    CircuitBreaker::Outcome breaker = CircuitBreaker::Outcome::success;
    std::exception_ptr error;
};

/// Run `call` and classify what it throws. Cancellation, deadlines and
/// caller bugs (ContractViolation, never wrapped) are neutral to the
/// breaker; SaloErrors pass through typed; anything else is wrapped in an
/// EngineFault whose message starts with `what`.
template <typename Call>
Classified guarded(const char* what, Call&& call) {
    using Verdict = CircuitBreaker::Outcome;
    try {
        call();
        return {};
    } catch (const RequestCancelled&) {
        return {Outcome::cancelled, Verdict::neutral, std::current_exception()};
    } catch (const DeadlineExceeded&) {
        return {Outcome::timed_out, Verdict::neutral, std::current_exception()};
    } catch (const ContractViolation&) {
        return {Outcome::failed, Verdict::neutral, std::current_exception()};
    } catch (const SaloError&) {
        return {Outcome::failed, Verdict::failure, std::current_exception()};
    } catch (const std::exception& e) {
        return {Outcome::failed, Verdict::failure,
                std::make_exception_ptr(EngineFault(std::string(what) + ": " + e.what()))};
    } catch (...) {
        return {Outcome::failed, Verdict::failure,
                std::make_exception_ptr(EngineFault(std::string(what) + " a non-std exception"))};
    }
}

/// The shared lifecycle, admission gate and ledger of one front door. The
/// door's queues live under `m` beside them.
class ServingCore {
public:
    using Clock = std::chrono::steady_clock;

    mutable std::mutex m;
    std::condition_variable cv_work;   ///< work queued / closing
    std::condition_variable cv_space;  ///< admission state changed
    std::condition_variable cv_idle;   ///< in-flight work resolved
    OutcomeLedger ledger;              ///< guarded by m
    bool closed = false;               ///< guarded by m

    /// Work the door's threads took and have not settled yet.
    struct Load {
        std::size_t count = 0;
        std::uint64_t cost = 0;  ///< admission cost units
    };
    Load in_flight;  ///< guarded by m

    /// Start the door's `count` threads, each running `body` until it sees
    /// `closed` with nothing left to serve.
    template <typename Body>
    void start(int count, Body body) {
        for (int i = 0; i < count; ++i) threads_.emplace_back(body);
    }

    /// The body of every door thread: under m, wait for `ready()` work and
    /// `take()` it, returning its Load (return once closed with nothing
    /// ready); `run()` it unlocked; under m, `settle()` it; then wake
    /// submitters and drainers. The Load counts as in flight in between.
    template <typename Ready, typename Take, typename Run, typename Settle>
    void serve(Ready&& ready, Take&& take, Run&& run, Settle&& settle) {
        for (;;) {
            Load taken;
            {
                std::unique_lock<std::mutex> lock(m);
                cv_work.wait(lock, [&] { return closed || ready(); });
                if (!ready()) return;
                taken = take();
                in_flight.count += taken.count;
                in_flight.cost += taken.cost;
            }
            cv_space.notify_all();
            run();
            {
                std::lock_guard<std::mutex> lock(m);
                settle();
                in_flight.count -= taken.count;
                in_flight.cost -= taken.cost;
            }
            cv_space.notify_all();
            cv_idle.notify_all();
        }
    }

    /// Under m: the lifecycle refusal of submit() after close().
    void throw_if_closed(const char* text) const {
        if (closed) throw SessionClosed(text);
    }

    /// The admission wait loop, under `lock` on m. Checks closed, then the
    /// request deadline, then `decide()`; on wait it sleeps until space
    /// opens, `budget` (none = no bound) ends or the deadline passes, and
    /// asks `withdrawn()` after every wake-up.
    template <typename Decide, typename Withdrawn = bool (*)()>
    Admission admit(std::unique_lock<std::mutex>& lock, Decide&& decide,
                    std::optional<Clock::duration> budget,
                    const std::optional<Clock::time_point>& deadline,
                    Withdrawn withdrawn = [] { return false; }) {
        std::optional<Clock::time_point> give_up;
        if (budget) give_up = Clock::now() + *budget;
        for (;;) {
            if (closed) return Admission::closed;
            const Clock::time_point now = Clock::now();
            if (deadline && now > *deadline) return Admission::expired;
            const AdmissionDecision decision = decide();
            if (decision == AdmissionDecision::admit) return Admission::admitted;
            if (decision == AdmissionDecision::reject) return Admission::rejected;
            if (give_up && now >= *give_up) return Admission::wait_timed_out;
            std::optional<Clock::time_point> wake = give_up;
            if (deadline && (!wake || *deadline < *wake)) wake = deadline;
            ++waiting_submits_;
            if (wake)
                cv_space.wait_until(lock, *wake);
            else
                cv_space.wait(lock);
            --waiting_submits_;
            if (withdrawn()) return Admission::withdrawn;
        }
    }

    /// Under m: count a refused admission and fail its promise — closed
    /// and expired with the door's texts, a shed with `queue_full(timed_out)`
    /// (a withdrawal is the door's own to fail).
    template <typename T, typename QueueFullError>
    void refuse(std::promise<T>& promise, const std::string& tenant, Admission a,
                const char* closed_text, const char* expired_text,
                QueueFullError&& queue_full) {
        ledger.resolve(tenant, a == Admission::expired     ? Outcome::shed_expired
                               : a == Admission::withdrawn ? Outcome::failed
                                                           : Outcome::rejected);
        if (a == Admission::expired)
            fail_promise(promise, DeadlineExceeded(expired_text));
        else if (a == Admission::closed)
            fail_promise(promise, SessionClosed(closed_text));
        else if (a != Admission::withdrawn)
            fail_promise(promise, queue_full(a == Admission::wait_timed_out));
    }

    /// Block until `idle()` holds (checked under m on every cv_idle wake).
    template <typename Idle>
    void drain(Idle idle) {
        std::unique_lock<std::mutex> lock(m);
        cv_idle.wait(lock, idle);
    }

    /// Stop accepting, let the door's threads serve what is queued, join
    /// them. Idempotent. Debug builds then check conservation, unless a
    /// submitter is still parked in admit(): it is counted as submitted and
    /// resolves when it wakes.
    void close();

    SessionStats stats() const {
        std::lock_guard<std::mutex> lock(m);
        return ledger.stats();
    }
    std::map<std::string, TenantStats> tenant_stats() const {
        std::lock_guard<std::mutex> lock(m);
        return ledger.tenant_stats();
    }

private:
    std::size_t waiting_submits_ = 0;
    std::vector<std::thread> threads_;
};

/// Rendezvous hashing: the candidate shard with the highest hash of
/// (keys..., shard), stable per key while the candidate set changes.
template <typename... Keys>
int rendezvous_pick(const std::vector<int>& candidates, Keys... keys) {
    int best = -1;
    std::uint64_t best_weight = 0;
    for (int s : candidates) {
        Fnv1a h;
        (h.mix(keys), ...);
        h.mix(s);
        const std::uint64_t w = h.digest();
        if (best < 0 || w > best_weight) {
            best_weight = w;
            best = s;
        }
    }
    return best;
}

/// One engine of a sharded tier.
struct EngineShard {
    explicit EngineShard(const SaloConfig& config) : engine(config) {}
    SaloEngine engine;
};

/// The engine shards of a tier, their circuit breakers and the optional
/// tier-wide plan store (ShardedSession, DecodeSession).
template <typename Shard>
struct ShardTier {
    ShardTier(const SaloConfig& config, int count,
              const std::vector<std::shared_ptr<const FaultInjector>>& injectors,
              bool shared_store, const HealthPolicy& health_policy)
        : health(std::max(count, 1), health_policy) {
        SALO_EXPECTS(count >= 1);
        if (shared_store)
            store = std::make_shared<PlanCache>(
                static_cast<std::size_t>(std::max(1, config.plan_cache_capacity)));
        for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
            SaloConfig c = config;
            if (i < injectors.size() && injectors[i] != nullptr) c.fault_injector = injectors[i];
            c.shared_plan_store = store;
            shards.push_back(std::make_unique<Shard>(c));
        }
    }

    Shard& operator[](int i) const { return *shards[static_cast<std::size_t>(i)]; }

    /// The tier's plan-cache and breaker counters: every shard's cache
    /// summed, plus the store's scheduler passes (its compiles and step
    /// derivations; the plans it keeps are the shards', already counted).
    void add_stats(SessionStats& s) const {
        for (const auto& shard : shards) s.plan_cache += shard->engine.plan_cache_stats();
        if (store != nullptr) {
            const PlanCacheStats st = store->stats();
            s.plan_cache.compiles += st.compiles;
            s.plan_cache.step_derives += st.step_derives;
        }
        s.quarantined_shard_events = health.quarantined_events_total();
        s.reintegrated_shard_events = health.reintegrated_events_total();
    }

    std::shared_ptr<PlanCache> store;
    std::vector<std::unique_ptr<Shard>> shards;
    mutable HealthSupervisor health;
};

}  // namespace salo
