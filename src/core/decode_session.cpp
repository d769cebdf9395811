#include "core/decode_session.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace salo {

namespace {

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
      tier_(config, options_.num_shards, options_.shard_fault_injectors,
            options_.shared_plan_store, options_.health),
      admission_(options_.admission) {
    core_.start(1, [this] { serve_loop(); });
}

DecodeSession::~DecodeSession() { close(); }

int DecodeSession::pick_shard(StreamId id, Clock::time_point now) {
    // Rendezvous hash over the shards that would currently grant a slot, so
    // placement is stable per stream id yet avoids shards already known
    // sick at open time. With every shard refusing, hash over all of them —
    // the stream will evict on its first step if the shard stays down.
    std::vector<int> eligible = tier_.health.acquirable(now);
    if (eligible.empty()) {
        eligible.resize(tier_.shards.size());
        std::iota(eligible.begin(), eligible.end(), 0);
    }
    return rendezvous_pick(eligible, std::uint64_t{0x5A10'0006}, id);  // tag: stream placement
}

StreamId DecodeSession::open_stream(const HybridPattern& pattern, int heads,
                                    int head_dim, float scale, std::string tenant_id) {
    SALO_EXPECTS(decode_compatible(pattern));
    SALO_EXPECTS(heads >= 1);
    SALO_EXPECTS(head_dim >= 1);
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(core_.m);
    core_.throw_if_closed(
        "DecodeSession: open_stream() after close() — the session is closed");
    const StreamId id = next_stream_id_++;
    const int shard = pick_shard(id, now);
    streams_.emplace(id, std::make_shared<Stream>(pattern, heads, head_dim, scale,
                                                  std::move(tenant_id), shard));
    return id;
}

std::future<StepResult> DecodeSession::step(StreamId stream_id, StepRequest request) {
    PendingStep pending;
    std::future<StepResult> future = pending.promise.get_future();

    std::unique_lock<std::mutex> lock(core_.m);
    core_.throw_if_closed(
        "DecodeSession: step() after close() — the session is closed and no longer accepts "
        "steps");
    const auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    const std::shared_ptr<Stream> held = it->second;  // close_stream() may drop it meanwhile
    Stream& stream = *held;
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
    core_.ledger.submit(stream.tenant, /*step=*/true);
    ++stream.accepted_steps;

    if (stream.evicted) {
        // The append log already has a hole; this step can never execute.
        core_.ledger.resolve(stream.tenant, Outcome::failed);
        fail_promise(pending.promise,
                     StreamEvicted("step() on an evicted stream: an earlier step "
                                   "failed or the pinned shard was quarantined — "
                                   "open a new stream and re-prefill"));
        return future;
    }

    // Steps are interactive-class; any refusal but a withdrawal also evicts
    // the stream, since the skipped position would break the append order.
    const Admission admission = core_.admit(
        lock,
        [&] {
            return admission_.decide({queued_steps_, 0, queued_cost_ + core_.in_flight.cost},
                                     Priority::interactive, pending.cost);
        },
        wait_budget(admission_.policy()), pending.request.deadline,
        [&] { return stream.evicted || streams_.count(stream_id) == 0; });
    if (admission != Admission::admitted) {
        core_.refuse(pending.promise, stream.tenant, admission,
                     "DecodeSession: session closed while the step waited for admission",
                     "step deadline expired while waiting for admission", [](bool timed_out) {
                         return QueueFull(timed_out
                                              ? "admission wait timed out for decode step"
                                              : "admission control rejected the decode step: "
                                                "queue limits reached (the stream is evicted "
                                                "— a skipped step would break the K/V append "
                                                "order)");
                     });
        if (admission == Admission::withdrawn) {  // an earlier step failed, or the stream closed
            fail_promise(pending.promise,
                         StreamEvicted("stream evicted while the step waited for admission"));
            return future;
        }
        const char* reason = "admission control shed the step";
        if (admission == Admission::closed) reason = "session closed during admission wait";
        if (admission == Admission::expired)
            reason = "step deadline expired during admission wait";
        if (admission == Admission::wait_timed_out) reason = "admission wait timed out";
        evict_locked(stream, reason);
        return future;
    }

    ++queued_steps_;
    queued_cost_ += pending.cost;
    stream.pending.push_back(std::move(pending));
    if (!stream.executing && !stream.queued) {
        stream.queued = true;
        ready_.push_back(stream_id);
    }
    lock.unlock();
    core_.cv_work.notify_one();
    return future;
}

void DecodeSession::evict_locked(Stream& stream, const std::string& reason) {
    if (!stream.evicted) {
        stream.evicted = true;
        core_.ledger.evicted_stream();
    }
    while (!stream.pending.empty()) {
        PendingStep p = std::move(stream.pending.front());
        stream.pending.pop_front();
        --queued_steps_;
        queued_cost_ -= p.cost;
        core_.ledger.resolve(stream.tenant, Outcome::failed);
        fail_promise(p.promise, StreamEvicted("stream evicted (" + reason +
                                              "); this queued step cannot execute"));
    }
    stream.queued = false;
}

Outcome DecodeSession::execute(ExecItem& item, int thread_budget) {
    Stream& stream = *item.stream;
    StepRequest& request = item.step.request;
    SaloEngine& engine = tier_[stream.shard].engine;
    const Clock::time_point now = Clock::now();

    // Shed without touching the shard: these never acquire a health slot.
    if (const auto shed = shed_queued(
            item.step.promise, request.cancel, request.deadline, now,
            "step cancelled while queued; shed before dispatch (stream evicted)",
            "step deadline expired while queued; shed before dispatch (stream evicted)"))
        return *shed;

    // Stream-sticky routing: the state lives here and only here. A shard
    // that refuses (quarantined, probe slots exhausted) evicts the stream —
    // the state is never rebuilt elsewhere behind the caller's back.
    if (!tier_.health.try_acquire(stream.shard, now)) {
        fail_promise(item.step.promise,
                     StreamEvicted("pinned shard " + std::to_string(stream.shard) +
                                   " is quarantined; stream state is lost — open a "
                                   "new stream and re-prefill"));
        return Outcome::failed;
    }

    const Classified c = guarded("decode step threw", [&] {
        // Commit the position to the append log first: whatever happens
        // below, position t is spoken for (a failure evicts the stream, so
        // the log never serves a later step with a hole in it).
        stream.state.append(request.k_row, request.v_row);
        const int length = stream.state.length();
        const HybridPattern prefix = prefix_pattern(stream.pattern, length);
        const CompiledPlanPtr micro = engine.compile_step(prefix, stream.head_dim);

        // Shard-level injectors were folded into the shard's SaloConfig at
        // construction; the options only carry a per-step override.
        const RunOptions options = run_options(request, thread_budget);

        // The integer datapath reads the rows quantized once at append();
        // only the golden oracle needs the float copies.
        if (request.fidelity.value_or(engine.config().fidelity) == Fidelity::kGolden) {
            const auto [k, v] = stream.state.assemble();
            item.step.promise.set_value(
                engine.run_step(*micro, request.q_row, k, v, stream.scale, options));
        } else {
            StepBuffers& kv = step_buffers();
            stream.state.assemble_quantized(kv.k, kv.v);
            item.step.promise.set_value(
                engine.run_step(*micro, request.q_row, kv.k, kv.v, stream.scale, options));
        }
    });
    if (c.error != nullptr) item.step.promise.set_exception(c.error);
    tier_.health.record(stream.shard, c.breaker, Clock::now());
    return c.outcome;
}

void DecodeSession::serve_loop() {
    std::vector<ExecItem> batch;
    std::vector<Outcome> outcome;
    const std::size_t take = options_.max_batch > 0 ? options_.max_batch
                                                    : std::numeric_limits<std::size_t>::max();
    // Invariant: a stream with queued steps is in ready_ unless it is
    // mid-execution, and the (single) dispatcher is here — so an empty
    // ready_ means an empty backlog.
    core_.serve([this] { return !ready_.empty(); },
                [&] {
                    batch.clear();
                    ServingCore::Load load;
                    // One step per stream per batch: steps of one stream are
                    // a strictly-ordered append log, so intra-stream
                    // concurrency is impossible by construction;
                    // inter-stream steps batch freely.
                    while (batch.size() < take && !ready_.empty()) {
                        const StreamId id = ready_.front();
                        ready_.pop_front();
                        const auto sit = streams_.find(id);
                        if (sit == streams_.end()) continue;  // closed while queued
                        Stream& stream = *sit->second;
                        stream.queued = false;
                        // An eviction while the id sat in ready_ drains
                        // pending but leaves this stale entry behind.
                        if (stream.pending.empty()) continue;
                        ExecItem item;
                        item.id = id;
                        item.stream = &stream;
                        item.step = std::move(stream.pending.front());
                        stream.pending.pop_front();
                        stream.executing = true;
                        --queued_steps_;
                        queued_cost_ -= item.step.cost;
                        load.cost += item.step.cost;
                        batch.push_back(std::move(item));
                    }
                    load.count = batch.size();
                    return load;
                },
                [&] { run_batch(batch, outcome); },
                [&] {
                    for (std::size_t i = 0; i < batch.size(); ++i) {
                        Stream& stream = *batch[i].stream;
                        stream.executing = false;
                        core_.ledger.resolve(stream.tenant, outcome[i]);
                        if (outcome[i] != Outcome::completed) {
                            // Uniform eviction contract: any non-success
                            // outcome leaves a hole in the append log.
                            evict_locked(stream, "a step failed to complete");
                        } else if (!stream.pending.empty() && !stream.queued) {
                            stream.queued = true;
                            ready_.push_back(batch[i].id);
                        }
                    }
                    if (!batch.empty()) core_.ledger.batch(batch.size());
                });
}

void DecodeSession::run_batch(std::vector<ExecItem>& batch, std::vector<Outcome>& outcome) {
    outcome.assign(batch.size(), Outcome::completed);
    if (batch.size() == 1) {
        // Idle tier: an automatic budget sizes the lone step by its work
        // (step_threads) — a small step runs right here on the dispatcher
        // and never wakes the pool; a large one fans its heads out over the
        // shard's pool.
        outcome[0] = execute(batch[0], /*thread_budget=*/0);
        return;
    }
    if (batch.empty()) return;
    // Step-level parallelism, grouped per shard so each group runs on its
    // own engine's pool (budget 1 per step — no nested parallelism,
    // bit-identical to the sequential path). Groups of different shards
    // run concurrently on one helper thread each.
    std::vector<std::vector<std::size_t>> by_shard(tier_.shards.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        by_shard[static_cast<std::size_t>(batch[i].stream->shard)].push_back(i);
    auto run_group = [&](const std::vector<std::size_t>& group) {
        if (group.size() == 1) {
            outcome[group[0]] = execute(batch[group[0]], /*thread_budget=*/1);
            return;
        }
        tier_[batch[group[0]].stream->shard].engine.pool().parallel_for(
            static_cast<int>(group.size()), [&](int i) {
                const std::size_t slot = group[static_cast<std::size_t>(i)];
                outcome[slot] = execute(batch[slot], /*thread_budget=*/1);
            });
    };
    std::vector<std::thread> helpers;
    const std::vector<std::size_t>* inline_group = nullptr;
    for (const auto& group : by_shard) {
        if (group.empty()) continue;
        if (inline_group == nullptr)
            inline_group = &group;
        else
            helpers.emplace_back([&run_group, &group] { run_group(group); });
    }
    run_group(*inline_group);
    for (std::thread& t : helpers) t.join();
}

void DecodeSession::close_stream(StreamId stream_id) {
    std::unique_lock<std::mutex> lock(core_.m);
    auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    Stream* stream = it->second.get();
    core_.cv_idle.wait(lock, [stream] {
        return stream->pending.empty() && !stream->executing;
    });
    streams_.erase(stream_id);
}

void DecodeSession::drain() {
    core_.drain([this] {
        return queued_steps_ == 0 && core_.in_flight.count == 0 && ready_.empty();
    });
}

int DecodeSession::stream_shard(StreamId stream_id) const {
    std::lock_guard<std::mutex> lock(core_.m);
    const auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    return it->second->shard;
}

SessionStats DecodeSession::stats() const {
    SessionStats s = core_.stats();
    tier_.add_stats(s);
    return s;
}

}  // namespace salo
