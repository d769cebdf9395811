// Persistent worker pool for host-side simulation parallelism.
//
// The original engine spawned fresh std::threads on every SaloEngine::run
// call; for layer-sized work items the spawn/join cost rivaled the work.
// This pool starts its workers once and reuses them for every parallel
// region. Scheduling is a shared atomic ticket counter — work-stealing in
// spirit: lanes that finish their items early immediately pull the next
// unclaimed index, so imbalanced item costs (heads, requests) even out
// without any static partitioning.
//
// Lanes: a pool of size L has L-1 worker threads plus the calling thread,
// which participates instead of blocking. Task functions receive the index
// only; each index runs exactly once, on whichever lane claims it.
//
// parallel_for is not reentrant: tasks must not call back into the same
// pool (each item of an engine region — a head of one run, a request of
// one batch — runs on a single lane).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace salo {

class ThreadPool {
public:
    /// A pool with `lanes` execution lanes total (>= 1); spawns lanes - 1
    /// persistent worker threads.
    explicit ThreadPool(int lanes) {
        const int workers = lanes > 1 ? lanes - 1 : 0;
        workers_.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            workers_.emplace_back([this] { worker_main(); });
    }

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_start_.notify_all();
        for (std::thread& t : workers_) t.join();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int lanes() const { return static_cast<int>(workers_.size()) + 1; }

    /// Run fn(index) for every index in [0, count); blocks until all
    /// complete. Indices are claimed dynamically one ticket at a time; the
    /// caller participates as one of the lanes.
    ///
    /// Fault isolation: a throwing task never abandons its siblings — every
    /// index still runs, and the first exception is rethrown here after the
    /// region completes. This is what lets one faulted request in a served
    /// batch fail alone while the rest of the batch finishes, and it is
    /// safe for cancellation too: cancelled tasks check their token first
    /// and throw immediately, so "run everything" costs one cheap check per
    /// remaining index, not real work.
    ///
    /// Safe for concurrent callers: regions from different threads are
    /// serialized on an internal mutex (SaloEngine is shared-const and its
    /// run() methods may race otherwise). Tasks must not call back into the
    /// same pool — a nested region would self-deadlock.
    void parallel_for(int count, const std::function<void(int)>& fn) {
        if (count <= 0) return;
        if (workers_.empty() || count == 1) {
            // Inline path: same per-index fault isolation as the threaded
            // path — every index runs, first exception rethrown after.
            std::exception_ptr first;
            for (int i = 0; i < count; ++i) {
                try {
                    fn(i);
                } catch (...) {
                    if (!first) first = std::current_exception();
                }
            }
            if (first) std::rethrow_exception(first);
            return;
        }
        const std::lock_guard<std::mutex> region(submit_m_);
        {
            std::lock_guard<std::mutex> lock(m_);
            job_ = &fn;
            count_ = count;
            next_.store(0, std::memory_order_relaxed);
            error_ = nullptr;
            active_ = static_cast<int>(workers_.size());
            ++generation_;
        }
        cv_start_.notify_all();
        drain();
        std::unique_lock<std::mutex> lock(m_);
        cv_done_.wait(lock, [this] { return active_ == 0; });
        job_ = nullptr;
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

private:
    void drain() {
        const std::function<void(int)>* job = job_;
        int i;
        while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < count_) {
            try {
                (*job)(i);
            } catch (...) {
                // Isolate the fault to this index: record the first
                // exception for the caller, keep running siblings.
                std::lock_guard<std::mutex> lock(m_);
                if (!error_) error_ = std::current_exception();
            }
        }
    }

    void worker_main() {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(m_);
        while (true) {
            cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            lock.unlock();
            drain();
            lock.lock();
            if (--active_ == 0) cv_done_.notify_one();
        }
    }

    std::vector<std::thread> workers_;
    std::mutex submit_m_;  ///< serializes whole parallel_for regions
    std::mutex m_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    const std::function<void(int)>* job_ = nullptr;
    int count_ = 0;
    std::atomic<int> next_{0};
    int active_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
};

}  // namespace salo
