/**
 * @file
 * Thread-pool unit tests: full range coverage, chunk contiguity,
 * serial fallback, nested-call inlining, exception propagation, the
 * ALR_THREADS environment override and its bound, and waitAtLeast, the
 * wait a region's participants use.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"

namespace alr {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        constexpr size_t kN = 1000;
        std::vector<std::atomic<int>> hits(kN);
        pool.parallelFor(0, kN, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << threads << " threads";
    }
}

TEST(ThreadPool, EmptyAndSingletonRanges)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(5, 5, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(7, 8, [&](size_t i) {
        ++calls;
        EXPECT_EQ(i, 7u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ChunksAreContiguousAndOrdered)
{
    ThreadPool pool(3);
    std::vector<std::pair<size_t, size_t>> chunks(3,
                                                  {size_t(0), size_t(0)});
    std::atomic<size_t> next{0};
    pool.parallelForChunks(10, 110, [&](size_t lo, size_t hi) {
        ASSERT_LT(lo, hi);
        chunks[next.fetch_add(1)] = {lo, hi};
    });
    ASSERT_EQ(next.load(), 3u);
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks.front().first, 10u);
    EXPECT_EQ(chunks.back().second, 110u);
    for (size_t c = 1; c < chunks.size(); ++c)
        EXPECT_EQ(chunks[c].first, chunks[c - 1].second);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    std::thread::id caller = std::this_thread::get_id();
    pool.parallelFor(0, 16, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(0, 8, [&](size_t) {
        // A nested call from a worker must not deadlock waiting for
        // the pool's own queue; it runs inline.
        pool.parallelFor(0, 4, [&](size_t) {
            inner.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner.load(), 8 * 4);
}

TEST(ThreadPool, PropagatesFirstException)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        std::atomic<int> ran{0};
        try {
            pool.parallelFor(0, 64, [&](size_t i) {
                ran.fetch_add(1, std::memory_order_relaxed);
                if (i == 13)
                    throw std::runtime_error("boom 13");
            });
            FAIL() << "expected exception with " << threads
                   << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("boom"),
                      std::string::npos);
        }
        EXPECT_GT(ran.load(), 0);
    }
}

TEST(ThreadPool, EnvOverridesDefaultThreadCount)
{
    ASSERT_EQ(unsetenv("ALR_THREADS"), 0);
    const int hardware = ThreadPool::defaultThreadCount();
    EXPECT_GE(hardware, 1);
    ASSERT_EQ(setenv("ALR_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);
    ASSERT_EQ(setenv("ALR_THREADS", "1024", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), kMaxThreads);
    // Past the bound, out of long's range, or not a positive integer:
    // warn and use the hardware count.  (Only the count is asked for; a
    // pool that large is never built.)
    for (const char *bad : {"1025", "100000", "5000000000",
                            "99999999999999999999999", "0", "-3",
                            "not-a-number", "4x", ""}) {
        ASSERT_EQ(setenv("ALR_THREADS", bad, 1), 0);
        EXPECT_EQ(ThreadPool::defaultThreadCount(), hardware) << bad;
    }
    ASSERT_EQ(unsetenv("ALR_THREADS"), 0);
}

TEST(ThreadPool, WaitAtLeastOrdersEveryPhase)
{
    // A barrier built on waitAtLeast: each participant of a region
    // writes its slot of phase p, counts itself in with a release
    // increment, waits for the whole phase, and then must see every
    // slot of phase p.  At 8 threads the pool is oversubscribed on a
    // small machine, so waiters must yield for the last arrival to run.
    for (int threads : {1, 2, 3, 4, 8}) {
        ThreadPool pool(threads);
        const size_t parties = size_t(threads);
        constexpr size_t kPhases = 200;
        std::vector<size_t> slot(parties * kPhases, 0);
        std::atomic<size_t> arrived{0}, mismatches{0};
        pool.parallelForChunks(0, parties, [&](size_t t, size_t end) {
            ASSERT_EQ(end, t + 1);
            for (size_t p = 0; p < kPhases; ++p) {
                slot[p * parties + t] = p + 1;
                arrived.fetch_add(1, std::memory_order_release);
                waitAtLeast(arrived, (p + 1) * parties);
                for (size_t u = 0; u < parties; ++u)
                    if (slot[p * parties + u] != p + 1)
                        mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
        EXPECT_EQ(mismatches.load(), 0u) << threads << " threads";
    }
}

TEST(ThreadPool, GlobalPoolResizes)
{
    ThreadPool::setGlobalThreadCount(2);
    EXPECT_EQ(ThreadPool::global().threadCount(), 2);
    std::atomic<long> sum{0};
    parallelFor(1, 101, [&](size_t i) {
        sum.fetch_add(long(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 5050);
    ThreadPool::setGlobalThreadCount(0); // restore the env default
}

} // namespace
} // namespace alr
