// A small fixed-size thread pool built for deterministic data-parallel
// fan-out (the multi-Delta sweep of core/delta_sweep).
//
// The only primitive is parallel_for: run body(worker, index) for every
// index in [0, count), distributing indices dynamically over the workers
// AND the calling thread.  Determinism is the caller's contract: bodies
// must write only to per-index (or per-worker) slots, so the result is
// independent of the number of threads and of the scheduling order.  The
// pool guarantees that `worker` ids are dense in [0, concurrency()) and
// that no two bodies run concurrently with the same worker id, which makes
// per-worker scratch state (e.g. a reachability engine's O(n^2) tables)
// safe without locks.
//
// A pool of concurrency 1 spawns no threads at all: parallel_for degrades
// to a plain sequential loop on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace natscale {

class ThreadPool {
public:
    /// `num_threads` is the total concurrency, counting the calling thread
    /// of parallel_for; 0 picks the hardware concurrency (at least 1).
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total number of threads that execute bodies, calling thread included.
    std::size_t concurrency() const noexcept { return workers_.size() + 1; }

    /// Runs body(worker, index) for every index in [0, count); returns when
    /// all bodies have finished.  Rethrows the first exception thrown by a
    /// body (remaining indices may be skipped).  Not reentrant: bodies must
    /// not call parallel_for on the same pool.  Trace spans opened by a
    /// body nest under the span open on the calling thread, whichever
    /// thread runs the body.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t worker, std::size_t index)>& body);

    /// Convenience overload for bodies that need no per-worker scratch.
    void parallel_for(std::size_t count, const std::function<void(std::size_t index)>& body);

private:
    struct Job {
        std::size_t count = 0;
        std::size_t next = 0;       // next unclaimed index (guarded by mutex_)
        std::size_t finished = 0;   // bodies completed (guarded by mutex_)
        std::uint64_t parent_span = 0;  // the caller's open trace span
        const std::function<void(std::size_t, std::size_t)>* body = nullptr;
        std::exception_ptr error;   // first failure (guarded by mutex_)
    };

    void worker_loop(std::size_t worker);

    /// Claims and runs indices of the current job until exhausted.  `lock`
    /// must hold mutex_ on entry; it is released around each body call and
    /// held again on return.
    void drain(Job& job, std::size_t worker, std::unique_lock<std::mutex>& lock);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_workers_;
    std::condition_variable job_done_;
    Job* job_ = nullptr;            // non-null while a parallel_for is active
    std::uint64_t generation_ = 0;  // bumped per job so workers wake exactly once
    std::size_t active_workers_ = 0;
    bool stop_ = false;
};

}  // namespace natscale
