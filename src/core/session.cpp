#include "core/session.hpp"

#include <limits>
#include <string>
#include <utility>

namespace salo {

namespace {

/// Admission cost proxy: head-rows. Execution time scales with the number
/// of scheduled tiles, which scales with heads x rows for a given pattern
/// family; this keeps a few huge requests from hiding behind a small queue
/// depth.
std::uint64_t request_cost(const AttentionRequest& r) {
    return static_cast<std::uint64_t>(r.q.count()) *
           static_cast<std::uint64_t>(r.q.rows());
}

template <typename Error>
void fail_promise(std::promise<LayerResult>& promise, Error error) {
    promise.set_exception(std::make_exception_ptr(std::move(error)));
}

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
    : engine_(config), options_(options) {
    // The legacy max_queue bound folds into the admission policy (block
    // mode, depth-only) unless the caller configured admission explicitly.
    AdmissionPolicy policy = options_.admission;
    if (policy.max_queue == 0 && options_.max_queue > 0)
        policy.max_queue = options_.max_queue;
    admission_ = AdmissionController(policy);
    dispatcher_ = std::thread([this] { serve_loop(); });
}

SaloSession::~SaloSession() { close(); }

CompiledPlanPtr SaloSession::compile(const HybridPattern& pattern, int head_dim) const {
    return engine_.compile(pattern, head_dim);
}

AdmissionSnapshot SaloSession::snapshot_locked() const {
    AdmissionSnapshot s;
    s.queued_interactive = queue_interactive_.size();
    s.queued_batch = queue_batch_.size();
    s.outstanding_cost = queued_cost_ + in_flight_cost_;
    return s;
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
        std::unique_lock<std::mutex> lock(m_);
        if (closed_)
            throw SessionClosed(
                "SaloSession: submit() after close() — the session is closed and no "
                "longer accepts requests");
        ++submitted_;

        const AdmissionPolicy& policy = admission_.policy();
        const Clock::time_point admission_deadline =
            Clock::now() + policy.block_timeout;
        for (;;) {
            if (closed_) {
                // Closed while waiting for space: the request was accepted
                // (counted) but can no longer be served.
                ++rejected_;
                fail_promise(pending.promise,
                             SessionClosed("SaloSession: session closed while the "
                                           "request waited for admission"));
                return future;
            }
            if (pending.request.deadline && Clock::now() > *pending.request.deadline) {
                // The request's own deadline expired while blocked on
                // admission — it never reaches the queue or the engine.
                ++timed_out_;
                ++shed_expired_;
                fail_promise(pending.promise,
                             DeadlineExceeded("request deadline expired while waiting "
                                              "for admission"));
                return future;
            }
            const AdmissionDecision decision =
                admission_.decide(snapshot_locked(), priority, pending.cost);
            if (decision == AdmissionDecision::admit) break;
            if (decision == AdmissionDecision::reject) {
                ++rejected_;
                fail_promise(pending.promise,
                             QueueFull(std::string("admission control rejected ") +
                                       priority_name(priority) +
                                       "-class request: queue limits reached"));
                return future;
            }
            // decision == wait
            if (policy.mode == AdmissionMode::block_with_timeout) {
                ++waiting_submits_;
                const std::cv_status wait_status =
                    cv_space_.wait_until(lock, admission_deadline);
                --waiting_submits_;
                if (wait_status == std::cv_status::timeout) {
                    if (admission_.decide(snapshot_locked(), priority, pending.cost) ==
                        AdmissionDecision::admit)
                        break;
                    ++rejected_;
                    fail_promise(pending.promise,
                                 QueueFull(std::string("admission wait timed out for ") +
                                           priority_name(priority) +
                                           "-class request"));
                    return future;
                }
            } else {
                ++waiting_submits_;
                cv_space_.wait(lock);
                --waiting_submits_;
            }
        }

        queued_cost_ += pending.cost;
        (priority == Priority::interactive ? queue_interactive_ : queue_batch_)
            .push_back(std::move(pending));
    }
    cv_work_.notify_one();
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

void SaloSession::serve_batch(std::vector<Pending>& batch, BatchTally& tally) {
    // Resolve every request's plan first (through the engine's PlanCache)
    // so compilation cost is paid once per distinct shape, not once per
    // lane, and so execution below touches no shared mutable state.
    std::vector<CompiledPlanPtr> plans(batch.size());
    std::vector<bool> dead(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Pending& p = batch[i];
        try {
            plans[i] = p.request.plan != nullptr
                           ? p.request.plan
                           : engine_.compile(*p.request.pattern, p.request.q.cols());
        } catch (...) {
            p.promise.set_exception(std::current_exception());
            dead[i] = true;
            ++tally.failed;
        }
    }

    enum class Outcome { ok, failed, cancelled, timed_out };

    // Classifies and never throws. Exceptions must not escape into the
    // pool's rethrow path — each request's outcome belongs to its own
    // future, and a faulted lane must leave its batch siblings untouched.
    auto execute = [&](std::size_t i, int thread_budget) -> Outcome {
        Pending& p = batch[i];
        RunOptions run_options;
        run_options.fidelity = p.request.fidelity;
        run_options.thread_budget = thread_budget;
        run_options.cancel = p.request.cancel;
        run_options.deadline = p.request.deadline;
        run_options.fault_injector = p.request.fault_injector.get();
        try {
            p.promise.set_value(engine_.run(*plans[i], p.request.q, p.request.k,
                                            p.request.v, p.request.scale, run_options));
            return Outcome::ok;
        } catch (const RequestCancelled&) {
            p.promise.set_exception(std::current_exception());
            return Outcome::cancelled;
        } catch (const DeadlineExceeded&) {
            p.promise.set_exception(std::current_exception());
            return Outcome::timed_out;
        } catch (const SaloError&) {
            // EngineFault and friends pass through typed.
            p.promise.set_exception(std::current_exception());
            return Outcome::failed;
        } catch (const ContractViolation&) {
            // Caller bug (shape/pattern mismatch): never wrapped.
            p.promise.set_exception(std::current_exception());
            return Outcome::failed;
        } catch (const std::exception& e) {
            p.promise.set_exception(std::make_exception_ptr(EngineFault(
                std::string("engine worker threw: ") + e.what())));
            return Outcome::failed;
        } catch (...) {
            p.promise.set_exception(std::make_exception_ptr(
                EngineFault("engine worker threw a non-std exception")));
            return Outcome::failed;
        }
    };

    auto tally_one = [&tally](Outcome o) {
        switch (o) {
            case Outcome::ok: ++tally.ok; break;
            case Outcome::failed: ++tally.failed; break;
            case Outcome::cancelled: ++tally.cancelled; break;
            case Outcome::timed_out: ++tally.timed_out; break;
        }
    };

    std::vector<std::size_t> live;
    live.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        if (!dead[i]) live.push_back(i);

    if (live.empty()) return;
    if (live.size() == 1) {
        // Idle server: give the lone request the whole pool (its heads, or
        // a single head's tiles, across the lanes; budget 0 = configured
        // lanes).
        tally_one(execute(live.front(), /*thread_budget=*/0));
        return;
    }
    // Busy server: request-level parallelism. Each request runs the pure
    // sequential path on one lane (budget 1) — no nested pool use,
    // bit-identical to its standalone sequential run. Outcomes land in a
    // per-request slot; the shared tallies are summed after the barrier.
    std::vector<Outcome> outcome(live.size(), Outcome::ok);
    engine_.pool().parallel_for(static_cast<int>(live.size()), [&](int i, int) {
        outcome[static_cast<std::size_t>(i)] =
            execute(live[static_cast<std::size_t>(i)], /*thread_budget=*/1);
    });
    for (Outcome o : outcome) tally_one(o);
}

void SaloSession::serve_loop() {
    std::vector<Pending> batch;
    std::vector<Pending> shed_cancelled;
    std::vector<Pending> shed_expired;
    for (;;) {
        std::uint64_t batch_cost = 0;
        {
            std::unique_lock<std::mutex> lock(m_);
            cv_work_.wait(lock, [this] {
                return closed_ || !queue_interactive_.empty() || !queue_batch_.empty();
            });
            if (queue_interactive_.empty() && queue_batch_.empty()) {
                if (closed_) return;
                continue;
            }
            const std::size_t take = options_.max_batch > 0
                                         ? options_.max_batch
                                         : std::numeric_limits<std::size_t>::max();
            batch.clear();
            shed_cancelled.clear();
            shed_expired.clear();
            const Clock::time_point now = Clock::now();
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
                if (p.request.cancel.cancelled()) {
                    ++cancelled_;
                    shed_cancelled.push_back(std::move(p));
                } else if (p.request.deadline && now > *p.request.deadline) {
                    ++timed_out_;
                    ++shed_expired_;
                    shed_expired.push_back(std::move(p));
                } else {
                    batch_cost += p.cost;
                    in_flight_cost_ += p.cost;
                    batch.push_back(std::move(p));
                }
            }
            in_flight_ = batch.size();
        }
        cv_space_.notify_all();
        for (Pending& p : shed_cancelled)
            fail_promise(p.promise,
                         RequestCancelled("request cancelled while queued; shed "
                                          "before dispatch"));
        for (Pending& p : shed_expired)
            fail_promise(p.promise,
                         DeadlineExceeded("request deadline expired while queued; "
                                          "shed before dispatch"));

        BatchTally tally;
        if (!batch.empty()) serve_batch(batch, tally);

        {
            std::lock_guard<std::mutex> lock(m_);
            completed_ += tally.ok;
            failed_ += tally.failed;
            cancelled_ += tally.cancelled;
            timed_out_ += tally.timed_out;
            if (!batch.empty()) {
                ++batches_;
                if (batch.size() > max_batch_seen_) max_batch_seen_ = batch.size();
            }
            in_flight_cost_ -= batch_cost;
            in_flight_ = 0;
        }
        cv_space_.notify_all();
        cv_idle_.notify_all();
    }
}

void SaloSession::drain() {
    std::unique_lock<std::mutex> lock(m_);
    cv_idle_.wait(lock, [this] {
        return queue_interactive_.empty() && queue_batch_.empty() && in_flight_ == 0;
    });
}

void SaloSession::close() {
    std::thread to_join;
    {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
        // Only the first closer takes the thread handle; a concurrent
        // close() sees a default-constructed (non-joinable) thread.
        to_join = std::move(dispatcher_);
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    if (to_join.joinable()) {
        to_join.join();
#ifndef NDEBUG
        // Conservation law at the source: with the dispatcher joined and no
        // submitter parked in an admission wait, every accepted request must
        // have resolved exactly one way. Debug/sanitizer builds fail loudly
        // here so an accounting bug dies in the test that caused it instead
        // of surfacing as a bench-gate failure later.
        std::lock_guard<std::mutex> lock(m_);
        if (waiting_submits_ == 0) {
            SALO_DEBUG_ASSERT(completed_ + failed_ + rejected_ + timed_out_ +
                                  cancelled_ ==
                              submitted_);
            // Whole-sequence sessions serve no decode steps; the steps
            // counter exists so decode tiers (core/decode_session.hpp) can
            // assert steps == submitted at their own close().
            SALO_DEBUG_ASSERT(stats_steps_ == 0);
        }
#endif
    }
}

SessionStats SaloSession::stats() const {
    std::lock_guard<std::mutex> lock(m_);
    SessionStats s;
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejected = rejected_;
    s.timed_out = timed_out_;
    s.cancelled = cancelled_;
    s.shed_expired = shed_expired_;
    s.batches = batches_;
    s.max_batch = max_batch_seen_;
    s.steps = stats_steps_;
    s.plan_cache = engine_.plan_cache_stats();
    return s;
}

}  // namespace salo
