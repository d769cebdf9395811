#include "core/shard_router.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.hpp"

namespace salo {

namespace {

/// The message of a classified engine error.
std::string error_message(const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    }
}

/// task_queues_ index for a priority class.
std::size_t band_index(Priority p) { return p == Priority::interactive ? 0 : 1; }

}  // namespace

ShardedSession::ShardedSession(const SaloConfig& config, ShardedSessionOptions options)
    : options_(std::move(options)),
      tier_(config, options_.num_shards, options_.shard_fault_injectors,
            options_.shared_plan_store, options_.health),
      sched_(options_.fairness) {
    SALO_EXPECTS(options_.retry.max_attempts >= 1);
    core_.start(options_.router_workers > 0 ? options_.router_workers
                                            : 2 * options_.num_shards,
                [this] { worker_main(); });
}

ShardedSession::~ShardedSession() { close(); }

CompiledPlanPtr ShardedSession::compile(const HybridPattern& pattern,
                                        int head_dim) const {
    return tier_[0].engine.compile(pattern, head_dim);
}

std::future<LayerResult> ShardedSession::submit(AttentionRequest request) {
    SALO_EXPECTS(request.plan != nullptr || request.pattern.has_value());
    SALO_EXPECTS(request.q.count() >= 1);
    SALO_EXPECTS(request.q.count() == request.k.count() &&
                 request.k.count() == request.v.count());

    Task task;
    task.cost = request_cost(request);
    // The routing key must be known before any shard compiles the request:
    // consistent_hash keeps one shape on one shard's PlanCache.
    if (options_.routing == RoutingPolicy::consistent_hash) {
        const SaloConfig& c = config();
        task.fingerprint =
            request.plan != nullptr
                ? request.plan->fingerprint()
                : plan_fingerprint(*request.pattern, request.q.cols(), c.geometry,
                                   c.schedule_options);
    }
    task.request = std::move(request);
    std::future<LayerResult> future = task.promise.get_future();
    const Priority priority = task.request.priority;
    const std::string tenant = task.request.tenant_id;

    {
        std::unique_lock<std::mutex> lock(core_.m);
        core_.throw_if_closed(
            "ShardedSession: submit() after close() — the tier is closed and no longer "
            "accepts requests");
        core_.ledger.submit(tenant);
        task.id = next_task_id_++;

        // Combined admission: the global scaled policy (degradation-aware:
        // limits shrink with the healthy-shard fraction) AND the tenant's
        // own quota, strictest outcome wins. A flooding tenant trips its
        // quota while everyone else's admission never sees it.
        bool tenant_limited = false;
        int healthy = 0;
        auto decide = [&] {
            healthy = tier_.health.healthy_count(Clock::now());
            const AdmissionController global(
                scaled_policy(options_.admission, healthy, num_shards()));
            const AdmissionDecision g = global.decide(
                {sched_.queued(Priority::interactive), sched_.queued(Priority::batch),
                 sched_.queued_cost() + core_.in_flight.cost},
                priority, task.cost);
            const AdmissionDecision t = sched_.decide(tenant, priority, task.cost);
            tenant_limited = t == AdmissionDecision::reject ||
                             (t == AdmissionDecision::wait && g == AdmissionDecision::admit);
            if (g == AdmissionDecision::reject || t == AdmissionDecision::reject)
                return AdmissionDecision::reject;
            if (g == AdmissionDecision::wait || t == AdmissionDecision::wait)
                return AdmissionDecision::wait;
            return AdmissionDecision::admit;
        };
        // The wait bound, when any applicable policy is block_with_timeout:
        // the tighter of the timeouts that can put this request to sleep.
        std::optional<Clock::duration> budget = wait_budget(options_.admission);
        if (const auto t = wait_budget(sched_.quota(tenant).admission))
            budget = budget ? std::min(*budget, *t) : t;

        const Admission admission =
            core_.admit(lock, decide, budget, task.request.deadline);
        if (admission != Admission::admitted) {
            const std::string cls = priority_name(priority);
            core_.refuse(
                task.promise, tenant, admission,
                "ShardedSession: tier closed while the request waited for admission",
                "request deadline expired while waiting for admission", [&](bool timed_out) {
                    if (timed_out)
                        return QueueFull("tier admission wait timed out for " + cls +
                                         "-class request");
                    if (tenant_limited)
                        return QueueFull("tenant quota rejected " + cls +
                                         "-class request for tenant '" + tenant + "'");
                    return QueueFull("tier admission rejected " + cls + "-class request (" +
                                     std::to_string(healthy) + "/" +
                                     std::to_string(num_shards()) + " shards healthy)");
                });
            return future;
        }

        // Lockstep commit: the scheduler books the cost, the task deque
        // holds the object — same tenant, same class, FIFO on both sides.
        sched_.push(tenant, priority, task.cost);
        task_queues_[tenant][band_index(priority)].push_back(std::move(task));
    }
    core_.cv_work.notify_one();
    return future;
}

std::future<LayerResult> ShardedSession::submit(CompiledPlanPtr plan, Tensor3<float> q,
                                                Tensor3<float> k, Tensor3<float> v,
                                                float scale) {
    return submit(
        make_request(std::move(plan), std::move(q), std::move(k), std::move(v), scale));
}

std::future<LayerResult> ShardedSession::submit(const HybridPattern& pattern,
                                                Tensor3<float> q, Tensor3<float> k,
                                                Tensor3<float> v, float scale) {
    return submit(make_request(pattern, std::move(q), std::move(k), std::move(v), scale));
}

void ShardedSession::worker_main() {
    std::optional<Task> task;
    Outcome outcome = Outcome::completed;
    core_.serve(
        [this] { return !sched_.empty(); },
        [&] {
            // The DWRR pick names a (tenant, class); the matching Task is
            // the front of that queue by the lockstep-commit invariant.
            const std::optional<FairScheduler::Pick> pick = sched_.pop();
            SALO_ASSERT(pick.has_value());
            auto queues_it = task_queues_.find(pick->tenant);
            SALO_ASSERT(queues_it != task_queues_.end());
            std::deque<Task>& q = queues_it->second[band_index(pick->priority)];
            SALO_ASSERT(!q.empty() && q.front().cost == pick->cost);
            task.emplace(std::move(q.front()));
            q.pop_front();
            if (queues_it->second[0].empty() && queues_it->second[1].empty())
                task_queues_.erase(queues_it);
            return ServingCore::Load{1, task->cost};
        },
        [&] { outcome = serve_task(*task); },
        [&] {
            core_.ledger.resolve(task->request.tenant_id, outcome);
            sched_.release(task->request.tenant_id, task->cost);
            task.reset();
        });
}

int ShardedSession::pick_shard(const Task& task, Clock::time_point now) {
    for (;;) {
        std::vector<int> candidates = tier_.health.acquirable(now);
        if (candidates.empty()) {
            // Every breaker refused: degrade to a forced probe of the shard
            // whose cooldown expires soonest rather than failing the tier.
            return tier_.health.force_acquire_soonest(now);
        }
        // A retry prefers any shard other than the one that just failed it.
        if (task.last_shard >= 0 && candidates.size() > 1)
            candidates.erase(
                std::remove(candidates.begin(), candidates.end(), task.last_shard),
                candidates.end());

        int chosen = candidates.front();
        switch (options_.routing) {
            case RoutingPolicy::least_outstanding_cost: {
                std::uint64_t best = ~0ull;
                for (int s : candidates) {
                    const std::uint64_t cost =
                        tier_[s].outstanding_cost.load(std::memory_order_relaxed);
                    if (cost < best) {
                        best = cost;
                        chosen = s;
                    }
                }
                break;
            }
            case RoutingPolicy::consistent_hash: {
                // Rendezvous hashing: stable per fingerprint while the
                // candidate set shrinks/grows with shard health.
                chosen = rendezvous_pick(candidates, task.fingerprint);
                break;
            }
            case RoutingPolicy::round_robin: {
                const std::uint64_t turn =
                    round_robin_.fetch_add(1, std::memory_order_relaxed);
                chosen = candidates[static_cast<std::size_t>(
                    turn % candidates.size())];
                break;
            }
        }
        if (tier_.health.try_acquire(chosen, now)) return chosen;
        // Lost a race with a quarantine or a probe slot; re-evaluate.
    }
}

ShardedSession::Clock::duration ShardedSession::backoff_for(const Task& task) const {
    const RetryPolicy& p = options_.retry;
    const int shift = std::min(task.attempts - 1, 20);
    const std::int64_t base_us = std::min<std::int64_t>(
        p.max_backoff.count(), p.base_backoff.count() << shift);
    Fnv1a h;
    h.mix(p.jitter_seed);
    h.mix(task.id);
    h.mix(task.attempts);
    const double u = static_cast<double>(h.digest() >> 11) *
                     (1.0 / 9007199254740992.0);  // [0, 1)
    return std::chrono::microseconds(
        static_cast<std::int64_t>(static_cast<double>(base_us) * (0.5 + 0.5 * u)));
}

ShardedSession::WaitOutcome ShardedSession::backoff_wait(
    Clock::duration d, const CancellationToken& cancel,
    const std::optional<Clock::time_point>& deadline) const {
    const Clock::time_point until = Clock::now() + d;
    for (;;) {
        // Token first: a cancel that fired between attempts aborts the
        // backoff immediately — the request must resolve RequestCancelled,
        // never burn another attempt.
        if (cancel.cancelled()) return WaitOutcome::cancelled;
        const Clock::time_point now = Clock::now();
        if (deadline && now >= *deadline) return WaitOutcome::deadline;
        if (now >= until) return WaitOutcome::elapsed;
        Clock::time_point next = std::min(until, now + std::chrono::microseconds(200));
        if (deadline && *deadline < next) next = *deadline;
        std::this_thread::sleep_until(next);
    }
}

Outcome ShardedSession::serve_task(Task& task) {
    const std::string& tenant = task.request.tenant_id;
    // Shed without touching any shard, mirroring SaloSession's dispatcher.
    if (const auto shed = shed_queued(
            task.promise, task.request.cancel, task.request.deadline, Clock::now(),
            "request cancelled while queued; shed before dispatch",
            "request deadline expired while queued; shed before dispatch"))
        return *shed;

    for (;;) {
        ++task.attempts;
        const Clock::time_point attempt_start = Clock::now();
        const int shard_index = pick_shard(task, attempt_start);
        if (task.attempts > 1 && shard_index != task.last_shard) {
            std::lock_guard<std::mutex> lock(core_.m);
            core_.ledger.failed_over(tenant);
        }
        Shard& shard = tier_[shard_index];
        shard.outstanding_cost.fetch_add(task.cost, std::memory_order_relaxed);
        const int active_here = shard.active.fetch_add(1, std::memory_order_relaxed) + 1;

        // Alone on the shard: use its whole pool (tile parallelism). Sharing
        // it: sequential lanes, like SaloSession's busy-server path. Either
        // way the result is bit-identical (engine guarantee).
        RunOptions options = run_options(task.request, active_here == 1 ? 0 : 1);
        if (options_.stall_timeout.count() > 0) {
            const Clock::time_point stall_bound = attempt_start + options_.stall_timeout;
            options.deadline = options.deadline ? std::min(*options.deadline, stall_bound)
                                                : stall_bound;
        }

        LayerResult result;
        Classified c = guarded("engine worker threw", [&] {
            const CompiledPlanPtr plan =
                task.request.plan != nullptr
                    ? task.request.plan
                    : shard.engine.compile(*task.request.pattern, task.request.q.cols());
            result = shard.engine.run(*plan, task.request.q, task.request.k, task.request.v,
                                      task.request.scale, options);
        });
        // A deadline that is not the request's own is the stall bound: the
        // shard wedged. Charge its breaker and retry the work elsewhere;
        // the request's own deadline is terminal (retrying could only
        // exceed it further).
        const bool stalled =
            c.outcome == Outcome::timed_out &&
            !(task.request.deadline && Clock::now() >= *task.request.deadline);
        if (stalled) c.breaker = CircuitBreaker::Outcome::failure;
        shard.outstanding_cost.fetch_sub(task.cost, std::memory_order_relaxed);
        shard.active.fetch_sub(1, std::memory_order_relaxed);
        tier_.health.record(shard_index, c.breaker, Clock::now());
        if (c.outcome == Outcome::completed) {
            task.promise.set_value(std::move(result));
            return Outcome::completed;
        }
        // Cancellation, the request's deadline and caller bugs
        // (deterministic on every shard) are never retried.
        if (c.breaker != CircuitBreaker::Outcome::failure) {
            task.promise.set_exception(c.error);
            return c.outcome;
        }

        // Retryable failure (EngineFault or a shard stall).
        const std::string last_fault =
            stalled ? "shard " + std::to_string(shard_index) + " stalled past the attempt bound"
                    : error_message(c.error);
        task.last_shard = shard_index;
        if (task.attempts >= options_.retry.max_attempts) {
            fail_promise(task.promise,
                         EngineFault("retry budget exhausted after " +
                                     std::to_string(task.attempts) +
                                     " attempts; last failure: " + last_fault));
            return Outcome::failed;
        }

        switch (backoff_wait(backoff_for(task), task.request.cancel,
                             task.request.deadline)) {
            case WaitOutcome::cancelled:
                fail_promise(task.promise,
                             RequestCancelled("request cancelled during retry backoff; "
                                              "not retried"));
                return Outcome::cancelled;
            case WaitOutcome::deadline:
                fail_promise(task.promise,
                             DeadlineExceeded("request deadline expired during retry "
                                              "backoff; not retried"));
                return Outcome::timed_out;
            case WaitOutcome::elapsed:
                break;
        }
        {
            // Fairness survives retries: the extra attempt is billed to the
            // tenant's DWRR deficit (the request itself stays with this
            // worker — it never re-enters a queue or jumps any line).
            std::lock_guard<std::mutex> lock(core_.m);
            core_.ledger.retried(tenant);
            sched_.charge(tenant, task.cost);
        }
    }
}

void ShardedSession::drain() {
    core_.drain([this] { return sched_.empty() && core_.in_flight.count == 0; });
}

SessionStats ShardedSession::stats() const {
    SessionStats s = core_.stats();
    tier_.add_stats(s);
    return s;
}

std::optional<TenantQueueSnapshot> ShardedSession::tenant_queue(
    const std::string& tenant) const {
    std::lock_guard<std::mutex> lock(core_.m);
    return sched_.tenant_snapshot(tenant);
}

}  // namespace salo
