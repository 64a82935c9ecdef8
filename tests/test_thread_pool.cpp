// Tests of the data-parallel thread pool behind the multi-Delta sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace natscale {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.concurrency(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), [&](std::size_t index) { ++hits[index]; });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoThreadsAndStillRuns) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<int> order;
    pool.parallel_for(16, [&](std::size_t index) { order.push_back(static_cast<int>(index)); });
    // Sequential fast path: plain in-order loop on the calling thread.
    std::vector<int> expected(16);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, WorkerIdsAreDenseAndInRange) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> by_worker(pool.concurrency());
    pool.parallel_for(200, [&](std::size_t worker, std::size_t) {
        ASSERT_LT(worker, pool.concurrency());
        ++by_worker[worker];
    });
    int total = 0;
    for (const auto& count : by_worker) total += count.load();
    EXPECT_EQ(total, 200);
}

TEST(ThreadPool, ZeroAndSingleCounts) {
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(1, [&](std::size_t index) {
        EXPECT_EQ(index, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.parallel_for(round + 1, [&](std::size_t index) {
            sum += static_cast<int>(index);
        });
        EXPECT_EQ(sum.load(), round * (round + 1) / 2);
    }
}

TEST(ThreadPool, PropagatesBodyException) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t index) {
                                       if (index == 37) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool survives a failed job.
    std::atomic<int> sum{0};
    pool.parallel_for(10, [&](std::size_t) { ++sum; });
    EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPool, DefaultPicksHardwareConcurrency) {
    ThreadPool pool;  // must not hang or throw whatever the hardware is
    EXPECT_GE(pool.concurrency(), 1u);
    std::atomic<int> sum{0};
    pool.parallel_for(64, [&](std::size_t) { ++sum; });
    EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPool, MaxWorkersCapsParticipation) {
    // The pool's width is the one cap on participation (it bounds the
    // per-worker engine memory of the sweep): worker ids stay below
    // concurrency(), every index still runs exactly once, and the call
    // still terminates, also when the job has more indices than threads.
    for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{6}}) {
        ThreadPool pool(width);
        std::vector<std::atomic<int>> runs(50);
        std::atomic<std::size_t> max_worker{0};
        pool.parallel_for(runs.size(), [&](std::size_t worker, std::size_t index) {
            ++runs[index];
            std::size_t seen = max_worker.load();
            while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
            }
        });
        for (auto& r : runs) EXPECT_EQ(r.load(), 1);
        EXPECT_LT(max_worker.load(), pool.concurrency());
        // The pool stays usable for later jobs.
        std::atomic<int> sum{0};
        pool.parallel_for(20, [&](std::size_t) { ++sum; });
        EXPECT_EQ(sum.load(), 20);
    }
}

TEST(ThreadPool, ResolveConcurrencyRule) {
    EXPECT_EQ(ThreadPool(3).concurrency(), 3u);
    EXPECT_GE(ThreadPool(0).concurrency(), 1u);
}

TEST(ThreadPool, RejectsCountsAboveTheCeilingBeforeStartingThreads) {
    // The check runs first, so no thread of the refused pool ever starts.
    EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), contract_error);
    EXPECT_LE(ThreadPool(0).concurrency(), ThreadPool::kMaxThreads);
}

}  // namespace
}  // namespace natscale
