/**
 * @file
 * The RCU local cache (Table 5: 1 KB, 64-byte lines, 4-cycle access).
 *
 * It holds the addressable vector operands (x^t, x^{t-1}, b, the
 * separated diagonal).  Chunks of omega doubles map to lines; the model
 * is direct-mapped over (vector id, chunk index).  Hits during streaming
 * runs are prefetched and overlap with compute; misses stall for the
 * DRAM fill latency.
 */

#ifndef ALR_ALRESCHA_SIM_CACHE_HH
#define ALR_ALRESCHA_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "alrescha/params.hh"
#include "alrescha/sim/memory.hh"
#include "common/stats.hh"

namespace alr {

/** Identifies which logical vector a cache access touches. */
enum class CacheVec : uint8_t { Xt, Xprev, B, Diag, Out, Aux };

class CacheModel
{
  public:
    /** One direct-mapped line.  The line array is the state a run's
     *  timing walk reads on entry and leaves on exit (the engine's
     *  timing memo keys and replays it). */
    struct Line
    {
        bool valid = false;
        CacheVec vec = CacheVec::Xt;
        Index chunk = 0;

        bool operator==(const Line &) const = default;
    };

    /**
     * Accesses counted since the last flush(), in plain integers so
     * the timing walk bumps no atomics.  Busy cycles are reads plus
     * writes (the port takes one access per cycle), and every miss is
     * one random line fetch from memory.
     */
    struct Counts
    {
        uint64_t reads = 0;
        uint64_t writes = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
    };

    CacheModel(const AccelParams &params, MemoryModel *memory);

    /**
     * Access the chunk @p chunk of vector @p vec.  Returns the stall
     * cycles on the critical path.
     *
     * Streaming-mode reads (@p on_critical_path false) never stall:
     * the configuration table is programmed ahead of time, so the RCU
     * prefetches upcoming chunks while blocks stream (§4.5 "the whole
     * available memory bandwidth is utilized only for streaming
     * payload"); a miss only adds its line fill to the memory traffic,
     * and the few contention cycles are returned for the engine to
     * charge against the stream.  Dependent reads (D-SymGS operands)
     * pay the access latency, plus the full DRAM fill on a miss.
     *
     * @p was_miss, when non-null, reports whether the access missed
     * (profiler byte attribution); it does not affect the model.
     */
    uint64_t read(CacheVec vec, Index chunk, bool on_critical_path,
                  bool *was_miss = nullptr);

    /** Write a chunk back; writes allocate.  @p was_miss as in read. */
    uint64_t write(CacheVec vec, Index chunk, bool *was_miss = nullptr);

    /** Counts include accesses not yet flushed. */
    double reads() const { return _reads.value() + double(_pending.reads); }
    double writes() const
    {
        return _writes.value() + double(_pending.writes);
    }
    double hits() const { return _hits.value() + double(_pending.hits); }
    double misses() const
    {
        return _misses.value() + double(_pending.misses);
    }
    double accesses() const { return reads() + writes(); }
    /** Cycles the cache port was occupied (Fig 18's cache-time metric). */
    double busyCycles() const
    {
        return _busyCycles.value() +
               double(_pending.reads + _pending.writes);
    }

    /** Valid lines currently resident (timeline occupancy counter). */
    size_t occupancy() const;

    const std::vector<Line> &lines() const { return _lines; }
    /** Install a line array of this cache's size (a timing-memo hit
     *  restores the lines its walk left). */
    void setLines(const std::vector<Line> &lines);

    const Counts &pending() const { return _pending; }
    /** Count @p counts as if accessed (a timing-memo hit). */
    void addPending(const Counts &counts);
    /** Add the pending counts to the registered stats, and the misses
     *  to the memory's random accesses, then clear them.  The engine
     *  flushes once per run (Engine::commitRun). */
    void flush();

    void reset();
    /** Attach this model's "cache" stat sub-group to @p group. */
    void registerStats(stats::StatGroup &group);

  private:
    /** Direct-mapped line index of (vec, chunk) -- the touch() hash. */
    size_t lineIndex(CacheVec vec, Index chunk) const
    {
        return (size_t(vec) * 0x9e3779b9u + chunk) % _lines.size();
    }

    /** Look (vec, chunk) up, allocating on a miss; true on a hit. */
    bool touch(CacheVec vec, Index chunk);

    AccelParams _params;
    MemoryModel *_memory;
    std::vector<Line> _lines;
    /** Latency of a miss's random line fetch. */
    uint64_t _fillCycles = 0;
    /** Bandwidth share of a prefetched miss's line fill. */
    uint64_t _lineStreamCycles = 0;
    Counts _pending;

    stats::StatGroup _stats{"cache"};
    stats::Scalar _reads;
    stats::Scalar _writes;
    stats::Scalar _hits;
    stats::Scalar _misses;
    stats::Scalar _busyCycles;
};

} // namespace alr

#endif // ALR_ALRESCHA_SIM_CACHE_HH
