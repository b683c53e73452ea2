/**
 * @file
 * Cycle-attributed timeline: a process-wide span/counter event recorder
 * exported as Chrome trace-event JSON (chrome://tracing, Perfetto).
 *
 * Two event clocks coexist, rendered as two Chrome "processes":
 *
 * - pid kPidModeled ("modeled"): timestamps are modeled accelerator
 *   cycles (rendered by Perfetto as microseconds, so 1 us on screen ==
 *   1 cycle).  Fixed tracks: data path (GEMV / D-SymGS spans), memory
 *   (stream spans), FCU (fill / reduce-drain), RCU (reconfig spans),
 *   plus counter tracks for link-stack depth and cache occupancy.
 * - pid kPidHost ("host"): timestamps are wall-clock microseconds
 *   since the recorder was enabled; one track per host thread (the
 *   host pool's SpMV and SpMM workers are tagged with a stable
 *   per-thread id), so simulator-side parallelism is visible next to
 *   the modeled run.
 *
 * Recording is disabled by default and zero-cost when off: every emit
 * helper is an inline relaxed-atomic load and branch, no locks, no
 * allocation.  When enabled, events land in a fixed-capacity ring
 * buffer under a mutex; once full, the oldest events are overwritten
 * and dropped() counts the overwrites, so long runs keep the tail of
 * the story instead of aborting or growing without bound.
 *
 * The recorder deliberately has no effect on simulation results: it
 * only observes timestamps that the engine already computes.
 */

#ifndef ALR_COMMON_TIMELINE_HH
#define ALR_COMMON_TIMELINE_HH

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace alr::timeline {

/** Chrome "process" ids: modeled-cycle clock vs host wall clock, plus
 *  the serving request plane (wall clock, one track per accelerator). */
constexpr uint32_t kPidModeled = 1;
constexpr uint32_t kPidHost = 2;
constexpr uint32_t kPidServe = 3;

/** Fixed tracks ("threads") inside the modeled process. */
constexpr uint32_t kTidDataPath = 1;
constexpr uint32_t kTidMemory = 2;
constexpr uint32_t kTidFcu = 3;
constexpr uint32_t kTidRcu = 4;
constexpr uint32_t kTidCounters = 5;
/** D-SymGS dependence chains: they overlap the streaming front (the
 *  paper's overlap claim), so they get their own track instead of
 *  producing partially-overlapping slices on the data-path track. */
constexpr uint32_t kTidChain = 6;

/** Fixed tracks inside the serve process: counters (queue depth,
 *  in-flight, batch occupancy) on track 1, per-accelerator request
 *  tracks from kTidServeAccBase + fleet index (named at runtime via
 *  setTrackName). */
constexpr uint32_t kTidServeCounters = 1;
constexpr uint32_t kTidServeAccBase = 16;

/** One recorded event.  Name/category must be string literals (the
 *  recorder stores the pointers, not copies). */
struct Event
{
    /** Async: a span keyed by id instead of nested on its track. */
    enum class Kind : uint8_t { Span, Counter, Instant, Async };

    const char *name = nullptr;
    const char *cat = nullptr;
    uint64_t ts = 0;   ///< cycles (modeled pid) or wall us (host pid)
    uint64_t dur = 0;  ///< span length; 0 for counters/instants
    double value = 0;  ///< counter value
    uint32_t pid = kPidModeled;
    uint32_t tid = 0;
    Kind kind = Kind::Span;
    uint64_t id = 0; ///< an async span's key
};

namespace detail {
extern std::atomic<bool> g_enabled;
void record(const Event &ev);
} // namespace detail

/** True when the recorder is capturing (inline fast path). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Start/stop capturing.  Enabling (re)starts the host clock epoch. */
void setEnabled(bool on);

/**
 * Restrict recording to the processes whose bit (1 << pid) is set in
 * @p mask (default: all).  alr_serve records only the request plane
 * ((1 << kPidHost) | (1 << kPidServe)): a drain replays the engine
 * hundreds of times, and the modeled events of every replay would
 * otherwise flood the ring and bury the request story.  Filtering
 * happens inside record(), after the enabled() fast path, so runs with
 * tracing off still pay exactly one relaxed atomic load per site.
 */
void setPidMask(uint32_t mask);

/**
 * True when events of process @p pid are being recorded: the recorder
 * is on and the pid mask passes @p pid.  The engine asks this for the
 * modeled plane: a run whose modeled events are recorded walks its
 * timing to emit them, while request-plane-only tracing (alr_serve)
 * leaves the timing memo in use.
 */
bool recording(uint32_t pid);

/** Resize the ring buffer (discards recorded events).  Default 1<<18. */
void setCapacity(size_t events);

/** Discard recorded events and the dropped count; keeps enabled state. */
void reset();

/** Events overwritten because the ring wrapped. */
uint64_t dropped();

/** Snapshot of the ring in record order (oldest first). */
std::vector<Event> events();

/** Wall-clock microseconds since the recorder was enabled (host pid). */
uint64_t hostNowUs();

/** Stable small integer id for the calling host thread. */
uint32_t hostThreadId();

/**
 * Name a dynamic track (pid, tid) for the exported trace: serve-plane
 * accelerator tracks carry their fleet entry's matrix name.  The name
 * is copied (unlike event names, which must be literals); re-setting
 * overwrites.  Works whether or not the recorder is enabled -- track
 * names are export metadata, not events, so they do not consume ring
 * capacity and survive reset().
 */
void setTrackName(uint32_t pid, uint32_t tid, const std::string &name);

/**
 * Record a complete span [ts, ts+dur) on a modeled track.  No-op when
 * disabled or dur would render as empty is fine (dur==0 spans are
 * kept: Perfetto renders them as instants).
 */
inline void
span(const char *name, const char *cat, uint32_t tid, uint64_t ts,
     uint64_t dur)
{
    if (!enabled())
        return;
    detail::record({name, cat, ts, dur, 0.0, kPidModeled, tid,
                    Event::Kind::Span});
}

/** Record a counter sample on the modeled counter track. */
inline void
counter(const char *name, uint64_t ts, double value)
{
    if (!enabled())
        return;
    detail::record({name, "counter", ts, 0, value, kPidModeled,
                    kTidCounters, Event::Kind::Counter});
}

/** Record a wall-clock span on the calling host thread's track. */
inline void
hostSpan(const char *name, const char *cat, uint64_t start_us,
         uint64_t end_us)
{
    if (!enabled())
        return;
    detail::record({name, cat, start_us,
                    end_us > start_us ? end_us - start_us : 0, 0.0,
                    kPidHost, hostThreadId(), Event::Kind::Span});
}

/**
 * Record a wall-clock async span [start_us, end_us) on the calling host
 * thread's track, keyed by @p id: a wait that began before the thread
 * took it up (a parked serve item's, popped by another worker) and so
 * need not nest inside the thread's complete spans.  Exported as a
 * begin/end pair, which Perfetto draws on a track of its own.
 */
inline void
hostAsyncSpan(const char *name, const char *cat, uint64_t id,
              uint64_t start_us, uint64_t end_us)
{
    if (!enabled())
        return;
    detail::record({name, cat, start_us,
                    end_us > start_us ? end_us - start_us : 0, 0.0,
                    kPidHost, hostThreadId(), Event::Kind::Async, id});
}

/**
 * Record a wall-clock span on a serve-plane track (request lifecycle:
 * queue wait, batch runs per accelerator).  Timestamps share the host
 * clock (hostNowUs), so worker tracks and accelerator tracks line up
 * in Perfetto.
 */
inline void
serveSpan(const char *name, const char *cat, uint32_t tid,
          uint64_t start_us, uint64_t end_us)
{
    if (!enabled())
        return;
    detail::record({name, cat, start_us,
                    end_us > start_us ? end_us - start_us : 0, 0.0,
                    kPidServe, tid, Event::Kind::Span});
}

/** Record a counter sample on the serve counter track (queue depth,
 *  in-flight requests, batch occupancy). */
inline void
serveCounter(const char *name, uint64_t ts_us, double value)
{
    if (!enabled())
        return;
    detail::record({name, "counter", ts_us, 0, value, kPidServe,
                    kTidServeCounters, Event::Kind::Counter});
}

/**
 * RAII host span: records the enclosing scope's wall time on the
 * calling thread's track.  Cheap when disabled (one atomic load in the
 * constructor, one in the destructor).
 */
class ScopedHostSpan
{
  public:
    ScopedHostSpan(const char *name, const char *cat)
        : _name(name), _cat(cat),
          _start(enabled() ? hostNowUs() : 0),
          _armed(enabled())
    {
    }
    ~ScopedHostSpan()
    {
        if (_armed)
            hostSpan(_name, _cat, _start, hostNowUs());
    }
    ScopedHostSpan(const ScopedHostSpan &) = delete;
    ScopedHostSpan &operator=(const ScopedHostSpan &) = delete;

  private:
    const char *_name;
    const char *_cat;
    uint64_t _start;
    bool _armed;
};

/**
 * Serialize everything recorded so far as a Chrome trace-event JSON
 * document ({"traceEvents": [...]}): "M" metadata naming the
 * processes/tracks, "X" complete spans, "C" counters, and a "b"/"e"
 * pair per async span.  Loadable in chrome://tracing and Perfetto.
 */
void exportChromeTrace(std::ostream &os);

} // namespace alr::timeline

#endif // ALR_COMMON_TIMELINE_HH
