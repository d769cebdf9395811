#include "core/plan_cache.hpp"

#include <utility>

#include "common/hash.hpp"

namespace salo {

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
                        int head_dim, const SaloConfig& config,
                        std::optional<int> step_position) const {
    if (cached.is_step() != step_position.has_value()) return false;
    if (step_position && cached.step().position != *step_position) return false;
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
    if (sp.period == 0 || t < sp.start) return derive_step(pattern, head_dim, config);

    // Steady state: positions T0 + r + kP share one template per residue r.
    const int residue = (t - sp.start) % sp.period;
    const std::uint64_t family = step_family_key(pattern, head_dim, config);
    if (t < sp.start + sp.period) {
        // The first period derives normally and leaves its plans behind as
        // the family's templates.
        CompiledPlanPtr plan = derive_step(pattern, head_dim, config);
        store_template(family, sp, residue, plan, head_dim, config);
        return plan;
    }
    CompiledPlanPtr tmpl = find_template(family, residue, pattern, head_dim, config);
    if (tmpl == nullptr) {
        // Stepped in past the first period (or the family was evicted):
        // derive the residue's template position lazily.
        const HybridPattern at(sp.start + residue + 1, pattern.bands(),
                               pattern.global_tokens());
        tmpl = derive_step(at, head_dim, config);
        store_template(family, sp, residue, tmpl, head_dim, config);
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

CompiledPlanPtr PlanCache::find_template(std::uint64_t family, int residue,
                                         const HybridPattern& pattern, int head_dim,
                                         const SaloConfig& config) {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = family_by_key_.find(family);
    if (it == family_by_key_.end()) return nullptr;
    const CompiledPlanPtr& tmpl = it->second->templates[static_cast<std::size_t>(residue)];
    // A family-key collision never matches: the template carries its
    // family's bands and globals.
    if (tmpl == nullptr || !same_family(*tmpl, pattern, head_dim, config)) return nullptr;
    ++hits_;
    families_.splice(families_.begin(), families_, it->second);  // move to MRU
    return tmpl;
}

void PlanCache::store_template(std::uint64_t family, const StepPeriod& sp, int residue,
                               CompiledPlanPtr plan, int head_dim, const SaloConfig& config) {
    std::lock_guard<std::mutex> lock(m_);
    auto it = family_by_key_.find(family);
    if (it != family_by_key_.end() &&
        !same_family(*it->second->exemplar, plan->pattern(), head_dim, config)) {
        // A colliding shape under the same key replaces the family rather
        // than mixing templates of two shapes.
        families_.erase(it->second);
        family_by_key_.erase(it);
        it = family_by_key_.end();
    }
    if (it == family_by_key_.end()) {
        families_.push_front(StepFamily{
            family, plan, std::vector<CompiledPlanPtr>(static_cast<std::size_t>(sp.period))});
        it = family_by_key_.emplace(family, families_.begin()).first;
        while (families_.size() > capacity_) {
            family_by_key_.erase(families_.back().key);
            families_.pop_back();
        }
    }
    it->second->templates[static_cast<std::size_t>(residue)] = std::move(plan);
}

CompiledPlanPtr PlanCache::derive_step(const HybridPattern& pattern, int head_dim,
                                       const SaloConfig& config) {
    SALO_EXPECTS(decode_compatible(pattern));
    const int position = pattern.n() - 1;
    const std::uint64_t full_key =
        plan_fingerprint(pattern, head_dim, config.geometry, config.schedule_options);
    const std::uint64_t key = step_plan_fingerprint(full_key, position);
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        const auto it = by_key_.find(key);
        if (it != by_key_.end() &&
            matches(**it->second, pattern, head_dim, config, position)) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
            return *it->second;
        }
        if (inflight_.count(key) == 0) break;  // become the deriving leader
        cv_compiled_.wait(lock);
    }

    ++misses_;
    inflight_.insert(key);
    const std::shared_ptr<PlanCache> shared = shared_;
    lock.unlock();

    // Resolve outside the lock. The full plan goes through get_or_compile —
    // self-recursion on a different key while unlocked — so all steps of
    // one shape amortize a single scheduler pass, and the full plan stays
    // cached for whole-sequence traffic. With a shared store, the store
    // both compiles and derives tier-wide-once.
    CompiledPlanPtr fresh;
    try {
        if (shared) {
            fresh = shared->get_or_derive_step(pattern, head_dim, config);
        } else {
            const CompiledPlanPtr full = get_or_compile(pattern, head_dim, config);
            fresh = derive_micro_plan_shared(*full);
        }
    } catch (...) {
        lock.lock();
        inflight_.erase(key);
        cv_compiled_.notify_all();
        throw;
    }

    lock.lock();
    if (shared) {
        ++shared_resolved_;
    } else {
        ++step_derives_;
    }
    inflight_.erase(key);
    const auto it = by_key_.find(key);
    if (it != by_key_.end()) {
        lru_.erase(it->second);
        by_key_.erase(it);
    }
    insert_locked(fresh);
    cv_compiled_.notify_all();
    return fresh;
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
}

}  // namespace salo
