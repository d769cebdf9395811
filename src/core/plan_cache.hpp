// PlanCache: a thread-safe LRU cache of CompiledPlans keyed by the plan
// fingerprint, so repeated layers/workloads never re-run the data
// scheduler.
//
// Concurrency: lookups and insertions take one mutex; the expensive
// compile of a miss runs *outside* the lock, so a slow compilation never
// blocks other threads' hits. Concurrent misses on one key are
// deduplicated: the first thread registers the key as in flight and
// compiles (one miss); later arrivals wait for the in-flight compile and
// adopt its artifact (counted as hits — they never run the scheduler). If
// the leader's compile throws, waiters wake, find no entry, and the next
// one becomes the new leader, so a failed compile never wedges the key.
//
// Shared tier: a cache may be attached to a shared read-mostly store —
// another PlanCache, typically owned by a ShardedSession and attached to
// every shard's local cache. A local miss then resolves through the shared
// store (which dedups in-flight compiles tier-wide) instead of running the
// scheduler locally, so N shards compiling one shape cost one scheduler
// pass, not N. Lock order is strictly local → shared (the local lock is
// dropped before the shared call), so hits on either cache never block on
// the other's compile. stats().compiles counts scheduler passes executed
// by *this* cache — with a shared store attached, a shard cache's compiles
// stays 0 and the shared store's compiles is the tier-wide pass count.
//
// Decode steps: get_or_derive_step serves per-position micro-plans. Past a
// stream shape's steady-state start it relabels per-residue templates
// instead of caching one entry per position (see its comment); the
// template table holds at most `capacity` shapes.
//
// Collisions: the fingerprint hashes the full scheduling input, but a
// 64-bit hash can in principle collide. Every hit re-checks structural
// equality (pattern, head_dim, geometry, options) against the cached plan;
// a true collision is treated as a miss and replaces the entry rather than
// serving the wrong schedule.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/compiled_plan.hpp"

namespace salo {

struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< includes fingerprint collisions
    std::uint64_t compiles = 0;    ///< scheduler passes run by THIS cache
    /// Decode micro-plan derivations run by THIS cache (get_or_derive_step
    /// misses resolved locally; like compiles, 0 with a shared store).
    std::uint64_t step_derives = 0;
    /// Steady-state decode micro-plans built by relabelling a template
    /// (get_or_derive_step at t >= T0 + P; no scheduler pass, no entry).
    std::uint64_t step_relabels = 0;
    /// Of misses: resolved by the attached shared store (no local compile).
    std::uint64_t shared_resolved = 0;
    std::uint64_t evictions = 0;   ///< LRU capacity evictions
    std::size_t size = 0;
    std::size_t capacity = 0;

    double hit_rate() const {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/// The compile step a cache runs on a miss. Defaults to compile_shared;
/// tests substitute throwing/counting fakes to exercise the dedup paths.
using PlanCompileFn =
    std::function<CompiledPlanPtr(const HybridPattern&, int, const SaloConfig&)>;

class PlanCache {
public:
    explicit PlanCache(std::size_t capacity = 64, PlanCompileFn compile_fn = {});

    /// The cached plan for (pattern, head_dim, config geometry/options),
    /// compiling and inserting it on a miss. Never returns null.
    CompiledPlanPtr get_or_compile(const HybridPattern& pattern, int head_dim,
                                   const SaloConfig& config);

    /// The decode micro-plan for the last row of `pattern` (a prefix
    /// pattern of length L; the step position is t = L-1). Never returns
    /// null.
    ///
    /// Before steady state (t < T0 + P, see step_period) a miss resolves
    /// the full plan through get_or_compile (so full and micro plans share
    /// this cache and the tier-wide dedup) and derives the micro-plan from
    /// it, under step_plan_fingerprint(full key, position) — a distinct
    /// type tag, so micro-plans never alias full plans in one cache. The
    /// plans of positions T0 .. T0+P-1 are also kept as the stream shape's
    /// templates, one per residue. From T0 + P on, the plan is the
    /// template of residue (t - T0) mod P relabelled to t
    /// (relabel_micro_plan): no scheduler pass, no LRU entry. A missing
    /// template is derived lazily at its own position.
    CompiledPlanPtr get_or_derive_step(const HybridPattern& pattern, int head_dim,
                                       const SaloConfig& config);

    /// Route this cache's misses through `store` (tier-wide compile dedup).
    /// Passing nullptr detaches. Not thread-safe against concurrent
    /// get_or_compile — attach at wiring time, before traffic.
    void attach_shared_store(std::shared_ptr<PlanCache> store);

    /// The cached plan for `fingerprint`, or null. Does not touch LRU order
    /// or the hit/miss counters (introspection only).
    CompiledPlanPtr peek(std::uint64_t fingerprint) const;

    PlanCacheStats stats() const;
    void clear();

private:
    /// Most-recently-used at the front.
    using LruList = std::list<CompiledPlanPtr>;

    /// `step_position` set: the lookup wants a micro-plan for that query
    /// position; unset: it wants a full plan. A cached entry of the other
    /// kind never matches, even on a fingerprint collision.
    bool matches(const CompiledPlan& cached, const HybridPattern& pattern, int head_dim,
                 const SaloConfig& config,
                 std::optional<int> step_position = std::nullopt) const;
    void insert_locked(CompiledPlanPtr plan);

    /// get_or_derive_step without templates: LRU lookup, else derive.
    CompiledPlanPtr derive_step(const HybridPattern& pattern, int head_dim,
                                const SaloConfig& config);

    /// The steady-state templates of one decode stream shape (bands,
    /// globals, head_dim, geometry, options — everything but the length).
    struct StepFamily {
        std::uint64_t key = 0;
        CompiledPlanPtr exemplar;  ///< first template stored; collision check
        std::vector<CompiledPlanPtr> templates;  ///< [P], null until derived
    };
    using FamilyList = std::list<StepFamily>;

    static std::uint64_t step_family_key(const HybridPattern& pattern, int head_dim,
                                         const SaloConfig& config);
    static bool same_family(const CompiledPlan& member, const HybridPattern& pattern,
                            int head_dim, const SaloConfig& config);
    /// The template for `residue`, or null; a hit counts in hits.
    CompiledPlanPtr find_template(std::uint64_t family, int residue,
                                  const HybridPattern& pattern, int head_dim,
                                  const SaloConfig& config);
    void store_template(std::uint64_t family, const StepPeriod& sp, int residue,
                        CompiledPlanPtr plan, int head_dim, const SaloConfig& config);

    mutable std::mutex m_;
    std::condition_variable cv_compiled_;  ///< an in-flight compile finished
    std::size_t capacity_;
    PlanCompileFn compile_fn_;
    std::shared_ptr<PlanCache> shared_;  ///< optional tier-wide store
    LruList lru_;
    std::unordered_map<std::uint64_t, LruList::iterator> by_key_;
    std::unordered_set<std::uint64_t> inflight_;  ///< keys being compiled now
    /// Decode step families, most-recently-used first; at most capacity_.
    FamilyList families_;
    std::unordered_map<std::uint64_t, FamilyList::iterator> family_by_key_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t compiles_ = 0;
    std::uint64_t step_derives_ = 0;
    std::uint64_t step_relabels_ = 0;
    std::uint64_t shared_resolved_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace salo
