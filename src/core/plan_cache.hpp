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
// Decode steps: get_or_derive_step serves per-position micro-plans from a
// separate table of step *families* (one per stream shape), never from the
// LRU: a decode stream inserts nothing there, so it cannot evict the
// whole-sequence plans of other traffic. A family keeps the micro-plans of
// its warm-up positions 0 .. T0+P-1 (the last P double as the per-residue
// templates every later position is relabelled from), so every stream of
// one shape after the first runs no scheduler pass at all. At most
// `capacity` families are kept, least recently used evicted first.
//
// Worst-case family bytes: a micro-plan holds about span/cols + 2 tiles of
// ~rows x cols x 1.4 bytes, so a whole warm-up grows with span^2. The
// positions below T0 are kept only up to kStepWarmUpBytes = 4 MiB per
// family, counted by schedule_bytes (the rest derive transiently for every
// stream); the P templates are always kept. Measured on a 32 x 32 array
// with a causal band + global 0: span 256 keeps all 288 plans, 1.9 MB,
// about one 12 x 64 stream's K/V ring (1.9 MB of float and int8 rows);
// span 1024 keeps 5.3 MB of its 24 MB warm-up and span 4096
// 9.4 MB of 355 MB (4 MiB below T0 plus 32 templates of 88 KB each). So
// the family table holds at most capacity x (4 MiB + P x plan bytes).
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
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/compiled_plan.hpp"

namespace salo {

struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< includes fingerprint collisions
    std::uint64_t compiles = 0;    ///< whole-sequence scheduler passes run by THIS cache
    /// Decode micro-plan derivations run by THIS cache, each one transient
    /// prefix compile (get_or_derive_step misses resolved locally; like
    /// compiles, 0 with a shared store).
    std::uint64_t step_derives = 0;
    /// Steady-state decode micro-plans built by relabelling a template
    /// (get_or_derive_step at t >= T0 + P; no scheduler pass, no entry).
    std::uint64_t step_relabels = 0;
    /// schedule_bytes of the micro-plans kept in THIS cache's step
    /// families (with a shared store, the store keeps and counts the same
    /// plans too).
    std::size_t step_plan_bytes = 0;
    /// Of misses: resolved by the attached shared store (no local compile).
    std::uint64_t shared_resolved = 0;
    std::uint64_t evictions = 0;   ///< LRU capacity evictions
    std::size_t size = 0;          ///< LRU entries (decode families not included)
    std::size_t capacity = 0;

    double hit_rate() const {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }

    /// Field-wise sum (a tier of caches).
    PlanCacheStats& operator+=(const PlanCacheStats& o) {
        hits += o.hits;
        misses += o.misses;
        compiles += o.compiles;
        step_derives += o.step_derives;
        step_relabels += o.step_relabels;
        step_plan_bytes += o.step_plan_bytes;
        shared_resolved += o.shared_resolved;
        evictions += o.evictions;
        size += o.size;
        capacity += o.capacity;
        return *this;
    }
};

/// Bytes of warm-up micro-plans (positions below T0) one step family
/// keeps, by schedule_bytes; its P templates are kept on top. Past it, a
/// warm-up position derives transiently for every stream of the shape.
inline constexpr std::size_t kStepWarmUpBytes = std::size_t{4} << 20;

/// Approximate heap bytes of a plan's schedule (the tiles dominate): what
/// the step families' byte bound counts.
std::size_t schedule_bytes(const CompiledPlan& plan);

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
    /// pattern of length L; the step position is t = L-1), with fingerprint
    /// step_plan_fingerprint(full key, t). Never returns null.
    ///
    /// Warm-up positions t < T0 + P (see step_period) are looked up in the
    /// stream shape's family; a miss compiles the prefix transiently (it is
    /// not cached) and derives the micro-plan, one scheduler pass counted
    /// in step_derives, then keeps it in the family (below T0 only within
    /// the family's byte bound). From T0 + P on, the plan is
    /// the template of residue (t - T0) mod P relabelled to t
    /// (relabel_micro_plan): no scheduler pass. Shapes without a period
    /// (step_period().period == 0) derive every position >= T0 transiently.
    /// With a shared store attached, misses resolve through the store's
    /// families, so one shape runs its warm-up passes once per tier.
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

    bool matches(const CompiledPlan& cached, const HybridPattern& pattern, int head_dim,
                 const SaloConfig& config) const;
    void insert_locked(CompiledPlanPtr plan);

    /// The decode micro-plans of one stream shape (bands, globals, head_dim,
    /// geometry, options — everything but the length).
    struct StepFamily {
        std::uint64_t key = 0;
        CompiledPlanPtr exemplar;  ///< first plan stored; collision check
        /// [T0 + P]: the plan of warm-up position t at index t, null until
        /// derived (or past the byte bound); indices T0 .. T0+P-1 are the
        /// per-residue templates.
        std::vector<CompiledPlanPtr> plans;
        std::size_t warm_up_bytes = 0;  ///< kept plans below T0
        std::size_t bytes = 0;          ///< all kept plans, templates included
    };
    using FamilyList = std::list<StepFamily>;

    /// Drop a family and its bytes. Caller holds m_.
    void erase_family_locked(FamilyList::iterator family);

    static std::uint64_t step_family_key(const HybridPattern& pattern, int head_dim,
                                         const SaloConfig& config);
    static bool same_family(const CompiledPlan& member, const HybridPattern& pattern,
                            int head_dim, const SaloConfig& config);
    /// The family's plan of warm-up position `index`, or null; a hit counts
    /// in hits and moves the family to the front. Caller holds m_.
    CompiledPlanPtr find_step_locked(std::uint64_t family, int index,
                                     const HybridPattern& pattern, int head_dim,
                                     const SaloConfig& config);
    /// The warm-up plan for the last row of `pattern` (t < sp.start +
    /// sp.period): family hit, else derived once (concurrent misses on one
    /// position dedup like get_or_compile) and stored in the family.
    CompiledPlanPtr warm_step(const HybridPattern& pattern, int head_dim,
                              const SaloConfig& config, const StepPeriod& sp);
    /// A micro-plan from the shared store, or compiled transiently and
    /// derived here; counts shared_resolved / step_derives.
    CompiledPlanPtr resolve_step(const std::shared_ptr<PlanCache>& shared,
                                 const HybridPattern& pattern, int head_dim,
                                 const SaloConfig& config);

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
    std::size_t step_plan_bytes_ = 0;
    std::uint64_t shared_resolved_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace salo
