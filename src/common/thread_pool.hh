/**
 * @file
 * A small dependency-free thread pool for host-side preprocessing.
 *
 * The Alrescha host work (locally-dense encoding, Algorithm 1
 * conversion, per-partition programming) decomposes into independent
 * block rows / partitions, so the only primitive needed is a
 * parallel-for over an index range.  Design constraints:
 *
 * - Determinism: parallelFor only promises that fn(i) runs exactly once
 *   per index; callers keep bit-for-bit reproducibility by writing into
 *   pre-sized slots and merging in index order.
 * - Work conservation: a region's chunks are claimed from a shared
 *   counter, by the caller as well as by the pool tasks it queues, so
 *   a caller never sleeps while a chunk of its region waits in the
 *   queue behind workers busy with another caller's region; it waits
 *   only for chunks already running.
 * - Serial fallback: a pool with one thread (or a singleton range) runs
 *   the loop inline on the caller -- the exact serial code path, no
 *   queueing, no synchronization.
 * - Nesting: a parallelFor issued from inside a pool worker runs inline
 *   serially instead of deadlocking on the pool's own queue.
 * - Exceptions: the first exception thrown by any iteration is captured
 *   and rethrown on the calling thread after every chunk has finished.
 *
 * The process-wide pool is sized by the ALR_THREADS environment
 * variable (or hardware concurrency when unset); tools expose a
 * --threads flag through setGlobalThreadCount().  Both are bounded by
 * kMaxThreads.
 *
 * waitAtLeast is the one way a pool task may wait on another task: the
 * participants of a level-parallel SymGS sweep (replay::sweepLevels)
 * wait with it for the slices of the level below.  Every other pool
 * task must run to completion without waiting on another task.
 */

#ifndef ALR_COMMON_THREAD_POOL_HH
#define ALR_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alr {

/** The largest pool ALR_THREADS or a --threads flag may ask for: more
 *  than 1024 threads is a typo, not a configuration. */
constexpr int kMaxThreads = 1024;

class ThreadPool
{
  public:
    /** @p threads worker count; 0 means defaultThreadCount(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return _threads; }

    /**
     * Run fn(i) for every i in [begin, end).  The range is split into
     * min(threadCount(), end - begin) contiguous chunks, the first
     * (end - begin) % chunks of them one index longer; iteration order
     * within a chunk is ascending.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &fn);

    /**
     * Chunked variant: fn(chunkBegin, chunkEnd) once per contiguous
     * chunk (the chunks of parallelFor), for callers that amortize
     * per-task state across a chunk.  The caller runs the first chunk;
     * each other chunk runs on whichever thread claims it first, a pool
     * worker or the caller once its own chunk is done.
     */
    void parallelForChunks(size_t begin, size_t end,
                           const std::function<void(size_t, size_t)> &fn);

    /** The process-wide pool, lazily built with defaultThreadCount(). */
    static ThreadPool &global();

    /**
     * Thread count from the ALR_THREADS environment variable when set
     * to an integer in [1, kMaxThreads], else
     * std::thread::hardware_concurrency() (never less than 1); any
     * other ALR_THREADS value warns.
     */
    static int defaultThreadCount();

    /**
     * Resize the global pool (CLI --threads override; 0 restores the
     * environment default).  Must not be called while the global pool
     * is executing work.
     */
    static void setGlobalThreadCount(int threads);

    /** True when the calling thread is a worker of any ThreadPool. */
    static bool onWorkerThread();

  private:
    void workerLoop();

    int _threads = 1;
    std::vector<std::thread> _workers;
    std::mutex _mutex;
    std::condition_variable _cv;
    std::deque<std::function<void()>> _queue;
    bool _stop = false;
};

/**
 * Wait until @p count holds at least @p target: spin a few pauses, then
 * yield the core, so an oversubscribed pool (more waiting threads than
 * cores) still makes progress.  Everything written before the release
 * increments that brought @p count there is visible after the wait.
 */
void waitAtLeast(const std::atomic<size_t> &count, size_t target);

/** parallelFor on the global pool. */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &fn);

/** parallelForChunks on the global pool. */
void parallelForChunks(size_t begin, size_t end,
                       const std::function<void(size_t, size_t)> &fn);

} // namespace alr

#endif // ALR_COMMON_THREAD_POOL_HH
