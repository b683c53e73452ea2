#include "common/timeline.hh"

#include "common/json.hh"
#include "common/version.hh"

#include <chrono>
#include <map>
#include <mutex>
#include <string>

namespace alr::timeline {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {
std::atomic<uint32_t> g_pidMask{~0u};
} // namespace

namespace {

using Clock = std::chrono::steady_clock;

struct Ring
{
    std::mutex mutex;
    std::vector<Event> buf;
    size_t head = 0;     // next write slot
    size_t count = 0;    // valid events (<= buf.size())
    uint64_t dropped = 0;
    Clock::time_point epoch = Clock::now();

    Ring() { buf.resize(size_t(1) << 18); }
};

Ring &
ring()
{
    static Ring r;
    return r;
}

std::atomic<uint32_t> g_nextThreadId{1};

/** Dynamic track names ((pid, tid) -> name), emitted as "M" metadata
 *  at export.  Own mutex: names are export metadata, not events, and
 *  must survive ring reset()/setCapacity(). */
struct TrackNames
{
    std::mutex mutex;
    std::map<std::pair<uint32_t, uint32_t>, std::string> names;
};

TrackNames &
trackNames()
{
    static TrackNames t;
    return t;
}

} // namespace

namespace detail {

void
record(const Event &ev)
{
    if ((g_pidMask.load(std::memory_order_relaxed) >> ev.pid & 1u) == 0)
        return;
    Ring &r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (r.buf.empty())
        return;
    if (r.count == r.buf.size())
        ++r.dropped;
    else
        ++r.count;
    r.buf[r.head] = ev;
    r.head = (r.head + 1) % r.buf.size();
}

} // namespace detail

void
setEnabled(bool on)
{
    Ring &r = ring();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        if (on)
            r.epoch = Clock::now();
    }
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void
setPidMask(uint32_t mask)
{
    g_pidMask.store(mask, std::memory_order_relaxed);
}

bool
recording(uint32_t pid)
{
    return enabled() &&
           (g_pidMask.load(std::memory_order_relaxed) >> pid & 1u) != 0;
}

void
setCapacity(size_t events)
{
    Ring &r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buf.assign(events, Event{});
    r.head = 0;
    r.count = 0;
    r.dropped = 0;
}

void
reset()
{
    Ring &r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.head = 0;
    r.count = 0;
    r.dropped = 0;
    r.epoch = Clock::now();
}

uint64_t
dropped()
{
    Ring &r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.dropped;
}

std::vector<Event>
events()
{
    Ring &r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<Event> out;
    out.reserve(r.count);
    size_t start = (r.head + r.buf.size() - r.count) % r.buf.size();
    for (size_t i = 0; i < r.count; ++i)
        out.push_back(r.buf[(start + i) % r.buf.size()]);
    return out;
}

uint64_t
hostNowUs()
{
    Ring &r = ring();
    Clock::time_point epoch;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        epoch = r.epoch;
    }
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - epoch);
    return us.count() < 0 ? 0 : uint64_t(us.count());
}

uint32_t
hostThreadId()
{
    thread_local uint32_t id =
        g_nextThreadId.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
setTrackName(uint32_t pid, uint32_t tid, const std::string &name)
{
    TrackNames &t = trackNames();
    std::lock_guard<std::mutex> lock(t.mutex);
    t.names[{pid, tid}] = name;
}

void
exportChromeTrace(std::ostream &os)
{
    json::Writer w(os);
    w.beginObject()
        .member("schema_version", version::kJsonSchemaVersion)
        .key("traceEvents")
        .beginArray();
    auto meta = [&](uint32_t pid, int tid, const char *key,
                    const std::string &value) {
        w.beginObject(true).member("ph", "M").member("pid", pid);
        if (tid >= 0)
            w.member("tid", tid);
        w.member("name", key).key("args").beginObject();
        w.member("name", value).end().end();
    };
    meta(kPidModeled, -1, "process_name", "modeled (1us = 1 cycle)");
    meta(kPidModeled, int(kTidDataPath), "thread_name", "data path");
    meta(kPidModeled, int(kTidMemory), "thread_name", "memory");
    meta(kPidModeled, int(kTidFcu), "thread_name", "fcu");
    meta(kPidModeled, int(kTidRcu), "thread_name", "rcu");
    meta(kPidModeled, int(kTidCounters), "thread_name", "counters");
    meta(kPidModeled, int(kTidChain), "thread_name", "d-symgs chain");
    meta(kPidHost, -1, "process_name", "host (wall clock)");
    meta(kPidServe, -1, "process_name", "serve (request plane, wall clock)");
    meta(kPidServe, int(kTidServeCounters), "thread_name", "serve counters");
    {
        TrackNames &t = trackNames();
        std::lock_guard<std::mutex> lock(t.mutex);
        for (const auto &[key, name] : t.names)
            meta(key.first, int(key.second), "thread_name", name);
    }

    for (const Event &ev : events()) {
        if (ev.kind == Event::Kind::Async) {
            for (const char *ph : {"b", "e"})
                w.beginObject(true)
                    .member("ph", ph)
                    .member("pid", ev.pid)
                    .member("tid", ev.tid)
                    .member("ts", *ph == 'b' ? ev.ts : ev.ts + ev.dur)
                    .member("id", ev.id)
                    .member("name", ev.name)
                    .member("cat", ev.cat ? ev.cat : "event")
                    .end();
            continue;
        }
        const char *ph = ev.kind == Event::Kind::Span      ? "X"
                         : ev.kind == Event::Kind::Counter ? "C"
                                                           : "i";
        w.beginObject(true)
            .member("ph", ph)
            .member("pid", ev.pid)
            .member("tid", ev.tid)
            .member("ts", ev.ts);
        if (ev.kind == Event::Kind::Span)
            w.member("dur", ev.dur);
        w.member("name", ev.name).member("cat", ev.cat ? ev.cat : "event");
        if (ev.kind == Event::Kind::Counter)
            w.key("args").beginObject().member("value", ev.value).end();
        else if (ev.kind == Event::Kind::Instant)
            w.member("s", "t");
        w.end();
    }
    w.end().member("displayTimeUnit", "ns").end();
    os << '\n';
}

} // namespace alr::timeline
