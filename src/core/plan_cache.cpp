#include "core/plan_cache.hpp"

#include <iterator>
#include <utility>

#include "common/hash.hpp"

namespace salo {

std::size_t schedule_bytes(const CompiledPlan& plan) {
    std::size_t bytes = sizeof(CompiledPlan) + sizeof(SchedulePlan);
    for (const TileTask& t : plan.plan().tiles)
        bytes += sizeof(TileTask) + t.query_ids.size() * sizeof(std::int32_t) +
                 t.segments.size() * sizeof(TileSegment) + t.valid.size() +
                 t.global_fresh.size() + t.global_col_rows.size();
    return bytes;
}

PlanCache::PlanCache(std::size_t capacity, PlanCompileFn compile_fn)
    : capacity_(capacity == 0 ? 1 : capacity), compile_fn_(std::move(compile_fn)) {
    if (!compile_fn_) {
        compile_fn_ = [](const HybridPattern& pattern, int head_dim,
                         const SaloConfig& config) {
            return compile_shared(pattern, head_dim, config);
        };
    }
}

void PlanCache::attach_shared_store(std::shared_ptr<PlanCache> store) {
    std::lock_guard<std::mutex> lock(m_);
    shared_ = std::move(store);
}

bool PlanCache::matches(const CompiledPlan& cached, const HybridPattern& pattern,
                        int head_dim, const SaloConfig& config) const {
    return cached.head_dim() == head_dim && cached.geometry() == config.geometry &&
           cached.options() == config.schedule_options && cached.pattern() == pattern;
}

CompiledPlanPtr PlanCache::get_or_compile(const HybridPattern& pattern, int head_dim,
                                          const SaloConfig& config) {
    const std::uint64_t key =
        plan_fingerprint(pattern, head_dim, config.geometry, config.schedule_options);
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        const auto it = by_key_.find(key);
        if (it != by_key_.end() && matches(**it->second, pattern, head_dim, config)) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
            return *it->second;
        }
        if (inflight_.count(key) == 0) break;  // become the compiling leader
        // Another thread is compiling this key right now: wait for it and
        // adopt its artifact instead of running the scheduler twice. The
        // re-lookup on wake also handles a failed or colliding compile.
        cv_compiled_.wait(lock);
    }

    ++misses_;
    inflight_.insert(key);
    const std::shared_ptr<PlanCache> shared = shared_;
    lock.unlock();

    // Resolve the miss outside the lock — through the shared store when one
    // is attached (its own in-flight dedup makes the compile tier-wide
    // unique), otherwise by running the scheduler here. Either way a slow
    // resolution must not stall concurrent hits.
    CompiledPlanPtr fresh;
    try {
        fresh = shared ? shared->get_or_compile(pattern, head_dim, config)
                       : compile_fn_(pattern, head_dim, config);
    } catch (...) {
        // Unregister and wake waiters so one of them can take over as
        // leader (or hit a cached colliding entry); the error goes to our
        // caller untouched.
        lock.lock();
        inflight_.erase(key);
        cv_compiled_.notify_all();
        throw;
    }

    lock.lock();
    if (shared) {
        ++shared_resolved_;
    } else {
        ++compiles_;
    }
    inflight_.erase(key);
    const auto it = by_key_.find(key);
    if (it != by_key_.end()) {
        // A colliding entry with this fingerprint exists (matches() said no
        // on the way in — a true 64-bit collision): replace it.
        lru_.erase(it->second);
        by_key_.erase(it);
    }
    insert_locked(fresh);
    cv_compiled_.notify_all();
    return fresh;
}

CompiledPlanPtr PlanCache::get_or_derive_step(const HybridPattern& pattern, int head_dim,
                                              const SaloConfig& config) {
    const StepPeriod sp = step_period(pattern, config.geometry);
    const int t = pattern.n() - 1;
    if (t < sp.start + sp.period) return warm_step(pattern, head_dim, config, sp);
    if (sp.period == 0) {
        std::unique_lock<std::mutex> lock(m_);
        const std::shared_ptr<PlanCache> shared = shared_;
        lock.unlock();
        return resolve_step(shared, pattern, head_dim, config);
    }

    // Steady state: positions T0 + r + kP share the template of residue r.
    const int residue = (t - sp.start) % sp.period;
    CompiledPlanPtr tmpl;
    {
        std::lock_guard<std::mutex> lock(m_);
        tmpl = find_step_locked(step_family_key(pattern, head_dim, config),
                                sp.start + residue, pattern, head_dim, config);
    }
    if (tmpl == nullptr) {
        // Stepped in past the warm-up (or the family was evicted): derive
        // the residue's template position on demand.
        const HybridPattern at(sp.start + residue + 1, pattern.bands(),
                               pattern.global_tokens());
        tmpl = warm_step(at, head_dim, config, sp);
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        ++step_relabels_;
    }
    return std::make_shared<const CompiledPlan>(relabel_micro_plan(*tmpl, pattern));
}

std::uint64_t PlanCache::step_family_key(const HybridPattern& pattern, int head_dim,
                                         const SaloConfig& config) {
    // plan_fingerprint without the sequence length: one key per stream shape.
    Fnv1a h;
    h.mix(std::uint64_t{0x5A10'0007});  // type tag: decode step family
    h.mix(static_cast<std::uint64_t>(pattern.bands().size()));
    for (const Band& b : pattern.bands()) {
        h.mix(b.lo);
        h.mix(b.count);
        h.mix(b.dilation);
        h.mix(b.dy);
    }
    h.mix(static_cast<std::uint64_t>(pattern.global_tokens().size()));
    for (int g : pattern.global_tokens()) h.mix(g);
    h.mix(head_dim);
    h.mix(config.geometry.fingerprint());
    h.mix(config.schedule_options.fingerprint());
    return h.digest();
}

bool PlanCache::same_family(const CompiledPlan& member, const HybridPattern& pattern,
                            int head_dim, const SaloConfig& config) {
    return member.head_dim() == head_dim && member.geometry() == config.geometry &&
           member.options() == config.schedule_options &&
           member.pattern().bands() == pattern.bands() &&
           member.pattern().global_tokens() == pattern.global_tokens();
}

CompiledPlanPtr PlanCache::find_step_locked(std::uint64_t family, int index,
                                            const HybridPattern& pattern, int head_dim,
                                            const SaloConfig& config) {
    const auto it = family_by_key_.find(family);
    if (it == family_by_key_.end()) return nullptr;
    const CompiledPlanPtr& plan = it->second->plans[static_cast<std::size_t>(index)];
    // A family-key collision never matches: the plan carries its family's
    // bands and globals.
    if (plan == nullptr || !same_family(*plan, pattern, head_dim, config)) return nullptr;
    ++hits_;
    families_.splice(families_.begin(), families_, it->second);  // move to MRU
    return plan;
}

CompiledPlanPtr PlanCache::warm_step(const HybridPattern& pattern, int head_dim,
                                     const SaloConfig& config, const StepPeriod& sp) {
    const int t = pattern.n() - 1;
    const std::uint64_t family = step_family_key(pattern, head_dim, config);
    // In-flight key of this position; the type tag keeps it apart from the
    // full-plan keys get_or_compile registers.
    const std::uint64_t key = step_plan_fingerprint(family, t);
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        if (CompiledPlanPtr hit = find_step_locked(family, t, pattern, head_dim, config))
            return hit;
        if (inflight_.count(key) == 0) break;  // become the deriving leader
        cv_compiled_.wait(lock);
    }

    ++misses_;
    inflight_.insert(key);
    const std::shared_ptr<PlanCache> shared = shared_;
    lock.unlock();

    CompiledPlanPtr fresh;
    try {
        fresh = resolve_step(shared, pattern, head_dim, config);
    } catch (...) {
        lock.lock();
        inflight_.erase(key);
        cv_compiled_.notify_all();
        throw;
    }

    lock.lock();
    inflight_.erase(key);
    auto it = family_by_key_.find(family);
    if (it != family_by_key_.end() &&
        !same_family(*it->second->exemplar, pattern, head_dim, config)) {
        // A colliding shape under the same key replaces the family rather
        // than mixing plans of two shapes.
        erase_family_locked(it->second);
        it = family_by_key_.end();
    }
    if (it == family_by_key_.end()) {
        families_.push_front(StepFamily{
            family, fresh,
            std::vector<CompiledPlanPtr>(static_cast<std::size_t>(sp.start + sp.period))});
        it = family_by_key_.emplace(family, families_.begin()).first;
        while (families_.size() > capacity_) erase_family_locked(std::prev(families_.end()));
    }
    StepFamily& fam = *it->second;
    CompiledPlanPtr& slot = fam.plans[static_cast<std::size_t>(t)];
    if (slot == nullptr) {
        // A template is always kept (later positions relabel it); a position
        // below T0 only within the family's byte bound.
        const std::size_t bytes = schedule_bytes(*fresh);
        const bool is_template = t >= sp.start;
        if (is_template || fam.warm_up_bytes + bytes <= kStepWarmUpBytes) {
            slot = fresh;
            fam.bytes += bytes;
            if (!is_template) fam.warm_up_bytes += bytes;
            step_plan_bytes_ += bytes;
        }
    }
    cv_compiled_.notify_all();
    return fresh;
}

CompiledPlanPtr PlanCache::resolve_step(const std::shared_ptr<PlanCache>& shared,
                                        const HybridPattern& pattern, int head_dim,
                                        const SaloConfig& config) {
    // Outside the lock. The prefix plan is scheduled only to be derived
    // from: whole-sequence traffic never asks for a decode prefix, so
    // caching it would only evict plans that traffic does use.
    CompiledPlanPtr fresh = shared ? shared->get_or_derive_step(pattern, head_dim, config)
                                   : derive_micro_plan_shared(
                                         *compile_fn_(pattern, head_dim, config));
    std::lock_guard<std::mutex> lock(m_);
    if (shared) {
        ++shared_resolved_;
    } else {
        ++step_derives_;
    }
    return fresh;
}

void PlanCache::erase_family_locked(FamilyList::iterator family) {
    step_plan_bytes_ -= family->bytes;
    family_by_key_.erase(family->key);
    families_.erase(family);
}

void PlanCache::insert_locked(CompiledPlanPtr plan) {
    lru_.push_front(std::move(plan));
    by_key_[lru_.front()->fingerprint()] = lru_.begin();
    while (lru_.size() > capacity_) {
        by_key_.erase(lru_.back()->fingerprint());
        lru_.pop_back();
        ++evictions_;
    }
}

CompiledPlanPtr PlanCache::peek(std::uint64_t fingerprint) const {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = by_key_.find(fingerprint);
    return it == by_key_.end() ? nullptr : *it->second;
}

PlanCacheStats PlanCache::stats() const {
    std::lock_guard<std::mutex> lock(m_);
    PlanCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.compiles = compiles_;
    s.step_derives = step_derives_;
    s.step_relabels = step_relabels_;
    s.step_plan_bytes = step_plan_bytes_;
    s.shared_resolved = shared_resolved_;
    s.evictions = evictions_;
    s.size = lru_.size();
    s.capacity = capacity_;
    return s;
}

void PlanCache::clear() {
    std::lock_guard<std::mutex> lock(m_);
    lru_.clear();
    by_key_.clear();
    families_.clear();
    family_by_key_.clear();
    step_plan_bytes_ = 0;
}

}  // namespace salo
