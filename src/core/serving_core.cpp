#include "core/serving_core.hpp"

namespace salo {

TenantStats OutcomeLedger::Tenant::stats(const std::string& name) const {
    TenantStats s;
    s.submitted = submitted;
    s.completed = at(Outcome::completed);
    s.failed = at(Outcome::failed);
    s.rejected = at(Outcome::rejected);
    s.timed_out = at(Outcome::timed_out) + at(Outcome::shed_expired);
    s.cancelled = at(Outcome::cancelled);
    s.retried = retried;
    s.failed_over = failed_over;
    s.steps = steps;
    if (s.accounted() > s.submitted)
        throw ContractViolation("conservation: tenant '" + name + "' resolved " +
                                std::to_string(s.accounted()) + " requests but submitted " +
                                std::to_string(s.submitted));
    return s;
}

SessionStats OutcomeLedger::stats() const {
    SessionStats s;
    for (const auto& [name, tenant] : tenants_) {
        const TenantStats t = tenant.stats(name);
        s.submitted += t.submitted;
        s.completed += t.completed;
        s.failed += t.failed;
        s.rejected += t.rejected;
        s.timed_out += t.timed_out;
        s.cancelled += t.cancelled;
        s.retried += t.retried;
        s.failed_over += t.failed_over;
        s.steps += t.steps;
        s.shed_expired += tenant.at(Outcome::shed_expired);
    }
    s.batches = batches_;
    s.max_batch = max_batch_;
    s.evicted_streams = evicted_streams_;
    return s;
}

std::map<std::string, TenantStats> OutcomeLedger::tenant_stats() const {
    std::map<std::string, TenantStats> out;
    for (const auto& [name, tenant] : tenants_) out.emplace(name, tenant.stats(name));
    return out;
}

void OutcomeLedger::debug_check_conserved() const {
#ifndef NDEBUG
    for (const auto& [name, tenant] : tenants_) {
        const TenantStats t = tenant.stats(name);
        SALO_DEBUG_ASSERT(t.accounted() == t.submitted);
        SALO_DEBUG_ASSERT(t.steps == 0 || t.steps == t.submitted);
    }
#endif
}

void ServingCore::close() {
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(m);
        closed = true;
        // Only the first closer takes the threads; a concurrent close()
        // finds none and returns at once.
        threads.swap(threads_);
    }
    cv_work.notify_all();
    cv_space.notify_all();
    if (threads.empty()) return;
    for (std::thread& t : threads) t.join();
    std::lock_guard<std::mutex> lock(m);
    if (waiting_submits_ == 0) ledger.debug_check_conserved();
}

}  // namespace salo
