#include "util/thread_pool.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace natscale {

ThreadPool::ThreadPool(std::size_t num_threads) {
    NATSCALE_EXPECTS(num_threads <= kMaxThreads);
    if (num_threads == 0) {
        num_threads =
            std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads);
    }
    workers_.reserve(num_threads - 1);
    for (std::size_t worker = 1; worker < num_threads; ++worker) {
        workers_.emplace_back([this, worker] { worker_loop(worker); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_workers_.notify_all();
    for (auto& worker : workers_) worker.join();
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body) {
    if (count == 0) return;
    if (workers_.empty() || count == 1) {
        // No pool threads (concurrency 1) or nothing to share: plain loop.
        for (std::size_t index = 0; index < count; ++index) body(0, index);
        return;
    }

    Job job;
    job.count = count;
    job.parent_span = obs::current_span_id();
    job.body = &body;

    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
    wake_workers_.notify_all();

    drain(job, /*worker=*/0, lock);  // the calling thread participates as worker 0

    job_done_.wait(lock, [&] { return active_workers_ == 0 && job.finished == job.next; });
    job_ = nullptr;
    if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
    parallel_for(count, [&body](std::size_t, std::size_t index) { body(index); });
}

void ThreadPool::worker_loop(std::size_t worker) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_workers_.wait(
            lock, [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
        if (stop_) return;
        seen = generation_;
        Job& job = *job_;
        ++active_workers_;
        {
            // Spans the bodies open on this thread nest under the caller's.
            const obs::ParentSpanScope parent(job.parent_span);
            drain(job, worker, lock);
        }
        --active_workers_;
        if (active_workers_ == 0 && job.finished == job.next) job_done_.notify_all();
    }
}

void ThreadPool::drain(Job& job, std::size_t worker, std::unique_lock<std::mutex>& lock) {
    // One index per claim: the sweep's bodies are full reachability scans, so
    // the per-claim lock cost is noise, and dynamic assignment balances the
    // wildly uneven per-Delta workloads (small Delta means many more
    // snapshots to scan).
    while (job.error == nullptr && job.next < job.count) {
        const std::size_t index = job.next++;
        lock.unlock();
        std::exception_ptr error;
        try {
            (*job.body)(worker, index);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        ++job.finished;
        if (error != nullptr && job.error == nullptr) job.error = error;
    }
}

}  // namespace natscale
