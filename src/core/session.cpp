#include "core/session.hpp"

#include <limits>
#include <string>
#include <utility>

namespace salo {

namespace {

/// SaloSession ignores tenant_id: its ledger has the one default tenant.
const std::string kTenant;

}  // namespace

AttentionRequest make_request(CompiledPlanPtr plan, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale) {
    AttentionRequest r;
    r.plan = std::move(plan);
    r.q = std::move(q);
    r.k = std::move(k);
    r.v = std::move(v);
    r.scale = scale;
    return r;
}

AttentionRequest make_request(HybridPattern pattern, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale) {
    AttentionRequest r;
    r.pattern = std::move(pattern);
    r.q = std::move(q);
    r.k = std::move(k);
    r.v = std::move(v);
    r.scale = scale;
    return r;
}

SaloSession::SaloSession(const SaloConfig& config, SessionOptions options)
    : engine_(config), options_(options), admission_(options_.admission) {
    core_.start(1, [this] { serve_loop(); });
}

SaloSession::~SaloSession() { close(); }

CompiledPlanPtr SaloSession::compile(const HybridPattern& pattern, int head_dim) const {
    return engine_.compile(pattern, head_dim);
}

std::future<LayerResult> SaloSession::submit(AttentionRequest request) {
    // Structural checks that are cheap and certainly caller bugs happen
    // here, synchronously; shape/pattern mismatches surface through the
    // future like any other execution error.
    SALO_EXPECTS(request.plan != nullptr || request.pattern.has_value());
    SALO_EXPECTS(request.q.count() >= 1);
    SALO_EXPECTS(request.q.count() == request.k.count() &&
                 request.k.count() == request.v.count());

    Pending pending;
    pending.cost = request_cost(request);
    pending.request = std::move(request);
    std::future<LayerResult> future = pending.promise.get_future();
    const Priority priority = pending.request.priority;

    {
        std::unique_lock<std::mutex> lock(core_.m);
        core_.throw_if_closed(
            "SaloSession: submit() after close() — the session is closed and no longer "
            "accepts requests");
        core_.ledger.submit(kTenant);
        auto decide = [&] {
            return admission_.decide({queue_interactive_.size(), queue_batch_.size(),
                                      queued_cost_ + core_.in_flight.cost},
                                     priority, pending.cost);
        };
        const Admission admission = core_.admit(lock, decide, wait_budget(admission_.policy()),
                                                pending.request.deadline);
        if (admission != Admission::admitted) {
            const std::string cls = priority_name(priority);
            core_.refuse(pending.promise, kTenant, admission,
                         "SaloSession: session closed while the request waited for admission",
                         "request deadline expired while waiting for admission",
                         [&](bool timed_out) {
                             return QueueFull(timed_out ? "admission wait timed out for " +
                                                              cls + "-class request"
                                                        : "admission control rejected " + cls +
                                                              "-class request: queue limits "
                                                              "reached");
                         });
            return future;
        }
        queued_cost_ += pending.cost;
        (priority == Priority::interactive ? queue_interactive_ : queue_batch_)
            .push_back(std::move(pending));
    }
    core_.cv_work.notify_one();
    return future;
}

std::future<LayerResult> SaloSession::submit(CompiledPlanPtr plan, Tensor3<float> q,
                                             Tensor3<float> k, Tensor3<float> v,
                                             float scale) {
    return submit(
        make_request(std::move(plan), std::move(q), std::move(k), std::move(v), scale));
}

std::future<LayerResult> SaloSession::submit(const HybridPattern& pattern,
                                             Tensor3<float> q, Tensor3<float> k,
                                             Tensor3<float> v, float scale) {
    return submit(make_request(pattern, std::move(q), std::move(k), std::move(v), scale));
}

void SaloSession::serve_batch(std::vector<Pending>& batch, std::vector<Outcome>& outcome) {
    // Resolve every request's plan first (through the engine's PlanCache)
    // so compilation cost is paid once per distinct shape, not once per
    // lane, and so execution below touches no shared mutable state.
    outcome.assign(batch.size(), Outcome::completed);
    std::vector<CompiledPlanPtr> plans(batch.size());
    std::vector<std::size_t> live;
    live.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Pending& p = batch[i];
        const Classified c = guarded("engine worker threw", [&] {
            plans[i] = p.request.plan != nullptr
                           ? p.request.plan
                           : engine_.compile(*p.request.pattern, p.request.q.cols());
        });
        if (c.error == nullptr) {
            live.push_back(i);
            continue;
        }
        p.promise.set_exception(c.error);
        outcome[i] = c.outcome;
    }

    // The classifier never throws: exceptions must not escape into the
    // pool's rethrow path — each request's outcome belongs to its own
    // future, and a faulted lane must leave its batch siblings untouched.
    auto execute = [&](std::size_t i, int thread_budget) {
        Pending& p = batch[i];
        const RunOptions options = run_options(p.request, thread_budget);
        const Classified c = guarded("engine worker threw", [&] {
            p.promise.set_value(engine_.run(*plans[i], p.request.q, p.request.k,
                                            p.request.v, p.request.scale, options));
        });
        if (c.error != nullptr) p.promise.set_exception(c.error);
        outcome[i] = c.outcome;
    };

    if (live.empty()) return;
    if (live.size() == 1) {
        // Idle server: give the lone request the whole pool (its heads
        // across the lanes; budget 0 = configured lanes).
        execute(live.front(), /*thread_budget=*/0);
        return;
    }
    // Busy server: request-level parallelism. Each request runs the pure
    // sequential path on one lane (budget 1) — no nested pool use,
    // bit-identical to its standalone sequential run. Outcomes land in
    // per-request slots, counted after the barrier.
    engine_.pool().parallel_for(static_cast<int>(live.size()), [&](int i, int) {
        execute(live[static_cast<std::size_t>(i)], /*thread_budget=*/1);
    });
}

void SaloSession::serve_loop() {
    std::vector<Pending> batch;
    std::vector<Outcome> outcome;
    const std::size_t take = options_.max_batch > 0 ? options_.max_batch
                                                    : std::numeric_limits<std::size_t>::max();
    core_.serve(
        [this] { return !queue_interactive_.empty() || !queue_batch_.empty(); },
        [&] {
            batch.clear();
            ServingCore::Load load;
            const ServingCore::Clock::time_point now = ServingCore::Clock::now();
            // Interactive class drains first, arrival order within class.
            // Cancelled and expired requests are shed here — before
            // batching — so they never reach the engine pool; shedding does
            // not consume batch slots.
            while (batch.size() < take &&
                   !(queue_interactive_.empty() && queue_batch_.empty())) {
                std::deque<Pending>& q =
                    queue_interactive_.empty() ? queue_batch_ : queue_interactive_;
                Pending p = std::move(q.front());
                q.pop_front();
                queued_cost_ -= p.cost;
                if (const auto shed = shed_queued(
                        p.promise, p.request.cancel, p.request.deadline, now,
                        "request cancelled while queued; shed before dispatch",
                        "request deadline expired while queued; shed before dispatch")) {
                    core_.ledger.resolve(kTenant, *shed);
                    continue;
                }
                load.cost += p.cost;
                batch.push_back(std::move(p));
            }
            load.count = batch.size();
            return load;
        },
        [&] { serve_batch(batch, outcome); },
        [&] {
            for (const Outcome o : outcome) core_.ledger.resolve(kTenant, o);
            if (!batch.empty()) core_.ledger.batch(batch.size());
        });
}

void SaloSession::drain() {
    core_.drain([this] {
        return queue_interactive_.empty() && queue_batch_.empty() && core_.in_flight.count == 0;
    });
}

SessionStats SaloSession::stats() const {
    SessionStats s = core_.stats();
    s.plan_cache = engine_.plan_cache_stats();
    return s;
}

}  // namespace salo
