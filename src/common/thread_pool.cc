#include "common/thread_pool.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/logging.hh"

namespace alr {

namespace {

thread_local bool tls_on_worker = false;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

} // namespace

ThreadPool::ThreadPool(int threads)
{
    _threads = threads > 0 ? threads : defaultThreadCount();
    // Worker 0 is the caller itself; only spawn the extras.
    for (int t = 1; t < _threads; ++t)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _cv.notify_all();
    for (std::thread &w : _workers)
        w.join();
}

void
ThreadPool::workerLoop()
{
    tls_on_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _cv.wait(lock, [this] { return _stop || !_queue.empty(); });
            if (_queue.empty()) {
                if (_stop)
                    return;
                continue;
            }
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelForChunks(size_t begin, size_t end,
                              const std::function<void(size_t, size_t)> &fn)
{
    if (begin >= end)
        return;
    size_t range = end - begin;
    size_t chunks = std::min<size_t>(size_t(_threads), range);
    // Serial path: one thread, a singleton range, or a nested call from
    // inside a pool worker all run inline on the caller.
    if (chunks <= 1 || tls_on_worker) {
        fn(begin, end);
        return;
    }

    struct Shared
    {
        std::atomic<size_t> remaining;
        std::mutex mutex;
        std::condition_variable done;
        std::exception_ptr error;
    };
    auto shared = std::make_shared<Shared>();
    shared->remaining.store(chunks, std::memory_order_relaxed);

    size_t per = range / chunks;
    size_t extra = range % chunks;
    size_t lo = begin;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        // Chunks after the first go to the queue; the first runs on the
        // calling thread below.
        size_t chunkLo = lo + per + (extra > 0 ? 1 : 0);
        for (size_t c = 1; c < chunks; ++c) {
            size_t len = per + (c < extra ? 1 : 0);
            size_t chunkHi = chunkLo + len;
            _queue.emplace_back([shared, &fn, chunkLo, chunkHi] {
                try {
                    fn(chunkLo, chunkHi);
                } catch (...) {
                    std::lock_guard<std::mutex> elock(shared->mutex);
                    if (!shared->error)
                        shared->error = std::current_exception();
                }
                if (shared->remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1) {
                    std::lock_guard<std::mutex> dlock(shared->mutex);
                    shared->done.notify_all();
                }
            });
            chunkLo = chunkHi;
        }
    }
    _cv.notify_all();

    // The caller executes the first chunk itself.
    size_t firstHi = lo + per + (extra > 0 ? 1 : 0);
    try {
        fn(lo, firstHi);
    } catch (...) {
        std::lock_guard<std::mutex> elock(shared->mutex);
        if (!shared->error)
            shared->error = std::current_exception();
    }
    if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) > 1) {
        std::unique_lock<std::mutex> lock(shared->mutex);
        shared->done.wait(lock, [&] {
            return shared->remaining.load(std::memory_order_acquire) == 0;
        });
    }
    if (shared->error)
        std::rethrow_exception(shared->error);
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)> &fn)
{
    parallelForChunks(begin, end, [&fn](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            fn(i);
    });
}

int
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("ALR_THREADS")) {
        char *tail = nullptr;
        errno = 0;
        long n = std::strtol(env, &tail, 10);
        if (tail != env && *tail == '\0' && errno != ERANGE && n > 0 &&
            n <= kMaxThreads)
            return int(n);
        warn("ignoring invalid ALR_THREADS value '%s' (want 1 to %d)", env,
             kMaxThreads);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? int(hw) : 1;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (!g_global_pool)
        g_global_pool = std::make_unique<ThreadPool>();
    return *g_global_pool;
}

void
ThreadPool::setGlobalThreadCount(int threads)
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_global_pool = std::make_unique<ThreadPool>(threads);
}

bool
ThreadPool::onWorkerThread()
{
    return tls_on_worker;
}

void
waitAtLeast(const std::atomic<size_t> &count, size_t target)
{
    // A short spin, then yield: spinning thousands of pauses starved
    // concurrent regions on a shared pool (DESIGN.md "Level-parallel
    // SymGS sweeps").
    constexpr int kSpins = 64;
    for (int spin = 0; count.load(std::memory_order_acquire) < target;
         ++spin) {
        if (spin < kSpins) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#elif defined(__aarch64__)
            asm volatile("yield");
#endif
        } else {
            std::this_thread::yield();
        }
    }
}

void
parallelFor(size_t begin, size_t end, const std::function<void(size_t)> &fn)
{
    ThreadPool::global().parallelFor(begin, end, fn);
}

void
parallelForChunks(size_t begin, size_t end,
                  const std::function<void(size_t, size_t)> &fn)
{
    ThreadPool::global().parallelForChunks(begin, end, fn);
}

} // namespace alr
