#include "core/decode_session.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/hash.hpp"

namespace salo {

namespace {

template <typename Error>
void fail_promise(std::promise<StepResult>& promise, Error error) {
    promise.set_exception(std::make_exception_ptr(std::move(error)));
}

/// The compact K/V of the steps this thread executes, kept across steps:
/// a steady-state step assembles without allocating, and thousands of
/// streams share a few cache-hot buffers instead of one each.
struct StepBuffers {
    Tensor3<std::int8_t> k, v;
};

StepBuffers& step_buffers() {
    thread_local StepBuffers buffers;
    return buffers;
}

/// The prefix pattern a stream sees at length L: same bands, globals
/// clipped to [0, L). Scheduler inputs depend on n, so each prefix length
/// is its own micro-plan.
HybridPattern prefix_pattern(const HybridPattern& full, int length) {
    std::vector<int> globals;
    for (int g : full.global_tokens()) {
        if (g >= length) break;  // sorted ascending
        globals.push_back(g);
    }
    return HybridPattern(length, full.bands(), std::move(globals));
}

}  // namespace

DecodeSession::DecodeSession(const SaloConfig& config, DecodeSessionOptions options)
    : options_(std::move(options)),
      health_(std::max(1, options_.num_shards), options_.health),
      admission_(options_.admission) {
    SALO_EXPECTS(options_.num_shards >= 1);
    if (options_.shared_plan_store)
        shared_store_ = std::make_shared<PlanCache>(
            static_cast<std::size_t>(std::max(1, config.plan_cache_capacity)));
    shards_.reserve(static_cast<std::size_t>(options_.num_shards));
    for (int s = 0; s < options_.num_shards; ++s) {
        SaloConfig shard_config = config;
        const auto idx = static_cast<std::size_t>(s);
        if (idx < options_.shard_fault_injectors.size() &&
            options_.shard_fault_injectors[idx] != nullptr)
            shard_config.fault_injector = options_.shard_fault_injectors[idx];
        shard_config.shared_plan_store = shared_store_;
        shards_.push_back(std::make_unique<Shard>(shard_config));
    }
    dispatcher_ = std::thread([this] { serve_loop(); });
}

DecodeSession::~DecodeSession() { close(); }

AdmissionSnapshot DecodeSession::snapshot_locked() const {
    AdmissionSnapshot s;
    s.queued_interactive = queued_steps_;
    s.queued_batch = 0;  // steps are interactive-class by construction
    s.outstanding_cost = queued_cost_ + in_flight_cost_;
    return s;
}

int DecodeSession::pick_shard(StreamId id, Clock::time_point now) {
    // Rendezvous hash over the shards that would currently grant a slot, so
    // placement is stable per stream id yet avoids shards already known
    // sick at open time. With every shard refusing, hash over all of them —
    // the stream will evict on its first step if the shard stays down.
    std::vector<int> eligible = health_.acquirable(now);
    if (eligible.empty()) {
        eligible.resize(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s)
            eligible[s] = static_cast<int>(s);
    }
    int best = -1;
    std::uint64_t best_weight = 0;
    for (int s : eligible) {
        Fnv1a h;
        h.mix(std::uint64_t{0x5A10'0006});  // type tag: stream placement
        h.mix(id);
        h.mix(s);
        const std::uint64_t w = h.digest();
        if (best < 0 || w > best_weight) {
            best_weight = w;
            best = s;
        }
    }
    return best;
}

StreamId DecodeSession::open_stream(const HybridPattern& pattern, int heads,
                                    int head_dim, float scale, std::string tenant_id) {
    SALO_EXPECTS(decode_compatible(pattern));
    SALO_EXPECTS(heads >= 1);
    SALO_EXPECTS(head_dim >= 1);
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(m_);
    if (closed_)
        throw SessionClosed(
            "DecodeSession: open_stream() after close() — the session is closed");
    const StreamId id = next_stream_id_++;
    const int shard = pick_shard(id, now);
    streams_.emplace(id, std::make_unique<Stream>(pattern, heads, head_dim, scale,
                                                  std::move(tenant_id), shard));
    return id;
}

std::future<StepResult> DecodeSession::step(StreamId stream_id, StepRequest request) {
    PendingStep pending;
    std::future<StepResult> future = pending.promise.get_future();

    std::unique_lock<std::mutex> lock(m_);
    if (closed_)
        throw SessionClosed(
            "DecodeSession: step() after close() — the session is closed and no "
            "longer accepts steps");
    const auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    Stream& stream = *it->second;
    // Shape and horizon checks are caller bugs, surfaced synchronously.
    SALO_EXPECTS(request.q_row.rows() == stream.heads &&
                 request.q_row.cols() == stream.head_dim);
    SALO_EXPECTS(request.k_row.rows() == stream.heads &&
                 request.k_row.cols() == stream.head_dim);
    SALO_EXPECTS(request.v_row.rows() == stream.heads &&
                 request.v_row.cols() == stream.head_dim);
    SALO_EXPECTS(stream.accepted_steps < static_cast<std::uint64_t>(stream.pattern.n()));

    pending.cost = static_cast<std::uint64_t>(stream.heads);
    pending.request = std::move(request);

    ++submitted_;
    ++steps_;
    TenantStats& tenant = tenant_stats_[stream.tenant];
    ++tenant.submitted;
    ++tenant.steps;
    ++stream.accepted_steps;

    if (stream.evicted) {
        // The append log already has a hole; this step can never execute.
        ++failed_;
        ++tenant.failed;
        fail_promise(pending.promise,
                     StreamEvicted("step() on an evicted stream: an earlier step "
                                   "failed or the pinned shard was quarantined — "
                                   "open a new stream and re-prefill"));
        return future;
    }

    // Admission wait loop, mirroring SaloSession::submit (steps are
    // interactive-class; an admission shed also evicts the stream, since
    // the skipped position would break the append order).
    const AdmissionPolicy& policy = admission_.policy();
    const Clock::time_point admission_deadline = Clock::now() + policy.block_timeout;
    for (;;) {
        if (closed_) {
            ++rejected_;
            ++tenant.rejected;
            evict_locked(stream, "session closed during admission wait");
            fail_promise(pending.promise,
                         SessionClosed("DecodeSession: session closed while the step "
                                       "waited for admission"));
            return future;
        }
        if (pending.request.deadline && Clock::now() > *pending.request.deadline) {
            ++timed_out_;
            ++shed_expired_;
            ++tenant.timed_out;
            evict_locked(stream, "step deadline expired during admission wait");
            fail_promise(pending.promise,
                         DeadlineExceeded("step deadline expired while waiting for "
                                          "admission"));
            return future;
        }
        const AdmissionDecision decision =
            admission_.decide(snapshot_locked(), Priority::interactive, pending.cost);
        if (decision == AdmissionDecision::admit) break;
        if (decision == AdmissionDecision::reject) {
            ++rejected_;
            ++tenant.rejected;
            evict_locked(stream, "admission control shed the step");
            fail_promise(pending.promise,
                         QueueFull("admission control rejected the decode step: queue "
                                   "limits reached (the stream is evicted — a skipped "
                                   "step would break the K/V append order)"));
            return future;
        }
        if (policy.mode == AdmissionMode::block_with_timeout) {
            ++waiting_submits_;
            const std::cv_status status = cv_space_.wait_until(lock, admission_deadline);
            --waiting_submits_;
            if (status == std::cv_status::timeout) {
                if (admission_.decide(snapshot_locked(), Priority::interactive,
                                      pending.cost) == AdmissionDecision::admit)
                    break;
                ++rejected_;
                ++tenant.rejected;
                evict_locked(stream, "admission wait timed out");
                fail_promise(pending.promise,
                             QueueFull("admission wait timed out for decode step"));
                return future;
            }
        } else {
            ++waiting_submits_;
            cv_space_.wait(lock);
            --waiting_submits_;
        }
        // The stream may have been evicted while we waited (its earlier
        // step failed, or the session started closing).
        if (stream.evicted) {
            ++failed_;
            ++tenant.failed;
            fail_promise(pending.promise,
                         StreamEvicted("stream evicted while the step waited for "
                                       "admission"));
            return future;
        }
    }

    ++queued_steps_;
    queued_cost_ += pending.cost;
    stream.pending.push_back(std::move(pending));
    if (!stream.executing && !stream.queued) {
        stream.queued = true;
        ready_.push_back(stream_id);
    }
    lock.unlock();
    cv_work_.notify_one();
    return future;
}

void DecodeSession::evict_locked(Stream& stream, const std::string& reason) {
    if (!stream.evicted) {
        stream.evicted = true;
        ++evicted_streams_;
    }
    TenantStats& tenant = tenant_stats_[stream.tenant];
    while (!stream.pending.empty()) {
        PendingStep p = std::move(stream.pending.front());
        stream.pending.pop_front();
        --queued_steps_;
        queued_cost_ -= p.cost;
        ++failed_;
        ++tenant.failed;
        fail_promise(p.promise, StreamEvicted("stream evicted (" + reason +
                                              "); this queued step cannot execute"));
    }
    stream.queued = false;
}

void DecodeSession::account_locked(const std::string& tenant_id, Outcome outcome) {
    TenantStats& tenant = tenant_stats_[tenant_id];
    switch (outcome) {
        case Outcome::ok:
            ++completed_;
            ++tenant.completed;
            break;
        case Outcome::failed:
            ++failed_;
            ++tenant.failed;
            break;
        case Outcome::cancelled:
            ++cancelled_;
            ++tenant.cancelled;
            break;
        case Outcome::timed_out:
            ++timed_out_;
            ++tenant.timed_out;
            break;
        case Outcome::shed_expired:
            ++timed_out_;
            ++shed_expired_;
            ++tenant.timed_out;
            break;
    }
}

DecodeSession::Outcome DecodeSession::execute(ExecItem& item, int thread_budget) {
    Stream& stream = *item.stream;
    StepRequest& request = item.step.request;
    SaloEngine& engine = shards_[static_cast<std::size_t>(stream.shard)]->engine;
    const Clock::time_point now = Clock::now();

    // Shed without touching the shard: these never acquire a health slot.
    if (request.cancel.cancelled()) {
        fail_promise(item.step.promise,
                     RequestCancelled("step cancelled while queued; shed before "
                                      "dispatch (stream evicted)"));
        return Outcome::cancelled;
    }
    if (request.deadline && now > *request.deadline) {
        fail_promise(item.step.promise,
                     DeadlineExceeded("step deadline expired while queued; shed "
                                      "before dispatch (stream evicted)"));
        return Outcome::shed_expired;
    }

    // Stream-sticky routing: the state lives here and only here. A shard
    // that refuses (quarantined, probe slots exhausted) evicts the stream —
    // the state is never rebuilt elsewhere behind the caller's back.
    if (!health_.try_acquire(stream.shard, now)) {
        fail_promise(item.step.promise,
                     StreamEvicted("pinned shard " + std::to_string(stream.shard) +
                                   " is quarantined; stream state is lost — open a "
                                   "new stream and re-prefill"));
        return Outcome::failed;
    }

    auto record = [&](CircuitBreaker::Outcome o) {
        health_.record(stream.shard, o, Clock::now());
    };

    try {
        // Commit the position to the append log first: whatever happens
        // below, position t is spoken for (a failure evicts the stream, so
        // the log never serves a later step with a hole in it).
        stream.state.append(request.k_row, request.v_row);
        const int length = stream.state.length();
        const HybridPattern prefix = prefix_pattern(stream.pattern, length);
        const CompiledPlanPtr micro = engine.compile_step(prefix, stream.head_dim);

        RunOptions run_options;
        run_options.fidelity = request.fidelity;
        run_options.thread_budget = thread_budget;
        run_options.cancel = request.cancel;
        run_options.deadline = request.deadline;
        // Shard-level injectors were folded into the shard's SaloConfig at
        // construction; this only carries a per-step override.
        run_options.fault_injector = request.fault_injector.get();

        // The integer datapath reads the rows quantized once at append();
        // only the golden oracle needs the float copies.
        if (request.fidelity.value_or(engine.config().fidelity) == Fidelity::kGolden) {
            const auto [k, v] = stream.state.assemble();
            item.step.promise.set_value(
                engine.run_step(*micro, request.q_row, k, v, stream.scale, run_options));
        } else {
            StepBuffers& kv = step_buffers();
            stream.state.assemble_quantized(kv.k, kv.v);
            item.step.promise.set_value(
                engine.run_step(*micro, request.q_row, kv.k, kv.v, stream.scale, run_options));
        }
        record(CircuitBreaker::Outcome::success);
        return Outcome::ok;
    } catch (const RequestCancelled&) {
        item.step.promise.set_exception(std::current_exception());
        record(CircuitBreaker::Outcome::neutral);
        return Outcome::cancelled;
    } catch (const DeadlineExceeded&) {
        item.step.promise.set_exception(std::current_exception());
        record(CircuitBreaker::Outcome::neutral);
        return Outcome::timed_out;
    } catch (const SaloError&) {
        item.step.promise.set_exception(std::current_exception());
        record(CircuitBreaker::Outcome::failure);
        return Outcome::failed;
    } catch (const ContractViolation&) {
        // Caller bug, not shard sickness: never wrapped, never judged.
        item.step.promise.set_exception(std::current_exception());
        record(CircuitBreaker::Outcome::neutral);
        return Outcome::failed;
    } catch (const std::exception& e) {
        fail_promise(item.step.promise,
                     EngineFault(std::string("decode step threw: ") + e.what()));
        record(CircuitBreaker::Outcome::failure);
        return Outcome::failed;
    } catch (...) {
        fail_promise(item.step.promise,
                     EngineFault("decode step threw a non-std exception"));
        record(CircuitBreaker::Outcome::failure);
        return Outcome::failed;
    }
}

void DecodeSession::serve_loop() {
    std::vector<ExecItem> batch;
    std::vector<Outcome> outcome;
    for (;;) {
        std::uint64_t batch_cost = 0;
        {
            std::unique_lock<std::mutex> lock(m_);
            cv_work_.wait(lock, [this] { return closed_ || !ready_.empty(); });
            if (ready_.empty()) {
                // Invariant: a stream with queued steps is in ready_ unless
                // it is mid-execution, and the (single) dispatcher is here —
                // so an empty ready_ means an empty backlog.
                if (closed_) return;
                continue;
            }
            const std::size_t take = options_.max_batch > 0
                                         ? options_.max_batch
                                         : std::numeric_limits<std::size_t>::max();
            batch.clear();
            // One step per stream per batch: steps of one stream are a
            // strictly-ordered append log, so intra-stream concurrency is
            // impossible by construction; inter-stream steps batch freely.
            while (batch.size() < take && !ready_.empty()) {
                const StreamId id = ready_.front();
                ready_.pop_front();
                const auto sit = streams_.find(id);
                if (sit == streams_.end()) continue;  // closed while queued
                Stream& stream = *sit->second;
                stream.queued = false;
                // An eviction while the id sat in ready_ drains pending but
                // leaves this stale entry behind; just skip it.
                if (stream.pending.empty()) continue;
                ExecItem item;
                item.id = id;
                item.stream = &stream;
                item.step = std::move(stream.pending.front());
                stream.pending.pop_front();
                stream.executing = true;
                --queued_steps_;
                queued_cost_ -= item.step.cost;
                batch_cost += item.step.cost;
                in_flight_cost_ += item.step.cost;
                batch.push_back(std::move(item));
            }
            in_flight_ = batch.size();
        }
        cv_space_.notify_all();

        outcome.assign(batch.size(), Outcome::ok);
        if (batch.size() == 1) {
            // Idle tier: an automatic budget sizes the lone step by its
            // work (step_threads) — a small step runs right here on the
            // dispatcher and never wakes the pool; a large one fans its
            // heads out over the shard's pool.
            outcome[0] = execute(batch[0], /*thread_budget=*/0);
        } else if (!batch.empty()) {
            // Step-level parallelism, grouped per shard so each group runs
            // on its own engine's pool (budget 1 per step — no nested
            // parallelism, bit-identical to the sequential path). Groups of
            // different shards run concurrently on one helper thread each.
            std::vector<std::vector<std::size_t>> by_shard(shards_.size());
            for (std::size_t i = 0; i < batch.size(); ++i)
                by_shard[static_cast<std::size_t>(batch[i].stream->shard)].push_back(i);
            auto run_group = [&](const std::vector<std::size_t>& group) {
                if (group.empty()) return;
                if (group.size() == 1) {
                    outcome[group[0]] = execute(batch[group[0]], /*thread_budget=*/1);
                    return;
                }
                SaloEngine& engine =
                    shards_[static_cast<std::size_t>(batch[group[0]].stream->shard)]
                        ->engine;
                engine.pool().parallel_for(
                    static_cast<int>(group.size()), [&](int i, int) {
                        const std::size_t slot = group[static_cast<std::size_t>(i)];
                        outcome[slot] = execute(batch[slot], /*thread_budget=*/1);
                    });
            };
            std::vector<std::thread> helpers;
            bool first = true;
            const std::vector<std::size_t>* inline_group = nullptr;
            for (const auto& group : by_shard) {
                if (group.empty()) continue;
                if (first) {
                    inline_group = &group;
                    first = false;
                } else {
                    helpers.emplace_back([&run_group, &group] { run_group(group); });
                }
            }
            if (inline_group != nullptr) run_group(*inline_group);
            for (std::thread& t : helpers) t.join();
        }

        {
            std::lock_guard<std::mutex> lock(m_);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                Stream& stream = *batch[i].stream;
                stream.executing = false;
                account_locked(stream.tenant, outcome[i]);
                if (outcome[i] != Outcome::ok) {
                    // Uniform eviction contract: any non-success outcome
                    // leaves a hole in the append log.
                    evict_locked(stream, "a step failed to complete");
                } else if (!stream.pending.empty() && !stream.queued) {
                    stream.queued = true;
                    ready_.push_back(batch[i].id);
                }
            }
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

void DecodeSession::close_stream(StreamId stream_id) {
    std::unique_lock<std::mutex> lock(m_);
    auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    Stream* stream = it->second.get();
    cv_idle_.wait(lock, [stream] {
        return stream->pending.empty() && !stream->executing;
    });
    streams_.erase(stream_id);
}

void DecodeSession::drain() {
    std::unique_lock<std::mutex> lock(m_);
    cv_idle_.wait(lock, [this] {
        return queued_steps_ == 0 && in_flight_ == 0 && ready_.empty();
    });
}

void DecodeSession::close() {
    std::thread to_join;
    {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
        to_join = std::move(dispatcher_);
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    if (to_join.joinable()) {
        to_join.join();
#ifndef NDEBUG
        std::lock_guard<std::mutex> lock(m_);
        if (waiting_submits_ == 0) {
            // Conservation, and the decode-tier refinement: every accepted
            // submission is a step, globally and per tenant.
            SALO_DEBUG_ASSERT(completed_ + failed_ + rejected_ + timed_out_ +
                                  cancelled_ ==
                              submitted_);
            SALO_DEBUG_ASSERT(steps_ == submitted_);
            std::uint64_t tenant_submitted = 0;
            for (const auto& [name, t] : tenant_stats_) {
                (void)name;
                SALO_DEBUG_ASSERT(t.accounted() == t.submitted);
                SALO_DEBUG_ASSERT(t.steps == t.submitted);
                tenant_submitted += t.submitted;
            }
            SALO_DEBUG_ASSERT(tenant_submitted == submitted_);
        }
#endif
    }
}

int DecodeSession::stream_shard(StreamId stream_id) const {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    return it->second->shard;
}

SessionStats DecodeSession::stats() const {
    SessionStats s;
    {
        std::lock_guard<std::mutex> lock(m_);
        s.submitted = submitted_;
        s.completed = completed_;
        s.failed = failed_;
        s.rejected = rejected_;
        s.timed_out = timed_out_;
        s.cancelled = cancelled_;
        s.shed_expired = shed_expired_;
        s.batches = batches_;
        s.max_batch = max_batch_seen_;
        s.steps = steps_;
        s.evicted_streams = evicted_streams_;
    }
    for (const auto& shard : shards_) {
        const PlanCacheStats c = shard->engine.plan_cache_stats();
        s.plan_cache.hits += c.hits;
        s.plan_cache.misses += c.misses;
        s.plan_cache.compiles += c.compiles;
        s.plan_cache.step_derives += c.step_derives;
        s.plan_cache.step_relabels += c.step_relabels;
        s.plan_cache.shared_resolved += c.shared_resolved;
        s.plan_cache.evictions += c.evictions;
        s.plan_cache.size += c.size;
        s.plan_cache.capacity += c.capacity;
    }
    if (shared_store_) {
        const PlanCacheStats c = shared_store_->stats();
        s.plan_cache.compiles += c.compiles;
        s.plan_cache.step_derives += c.step_derives;
    }
    s.quarantined_shard_events = health_.quarantined_events_total();
    s.reintegrated_shard_events = health_.reintegrated_events_total();
    return s;
}

std::map<std::string, TenantStats> DecodeSession::tenant_stats() const {
    std::lock_guard<std::mutex> lock(m_);
    return tenant_stats_;
}

std::vector<ShardHealthSnapshot> DecodeSession::shard_health() const {
    return health_.snapshot(Clock::now());
}

}  // namespace salo
