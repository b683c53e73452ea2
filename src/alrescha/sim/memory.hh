/**
 * @file
 * Streaming memory model (12 GB GDDR5 @ 288 GB/s, Table 5).
 *
 * Alrescha's format guarantees sequential streaming, so the model is a
 * bandwidth pipe: streaming n bytes costs ceil(n / bytesPerCycle) cycles.
 * Random accesses (local-cache misses) additionally pay a DRAM latency.
 */

#ifndef ALR_ALRESCHA_SIM_MEMORY_HH
#define ALR_ALRESCHA_SIM_MEMORY_HH

#include <cstdint>

#include "alrescha/params.hh"
#include "common/stats.hh"

namespace alr {

class MemoryModel
{
  public:
    explicit MemoryModel(const AccelParams &params) : _params(params) {}

    /** Cycles to stream @p bytes sequentially at full bandwidth. */
    uint64_t streamCycles(uint64_t bytes) const;

    /** Record @p bytes of sequential payload traffic. */
    void recordStream(uint64_t bytes) { _bytesStreamed += double(bytes); }

    /** Record @p count random (cache-miss) line fetches: the cache
     *  flushes its counted misses once per run. */
    void recordRandomAccesses(uint64_t count)
    {
        if (count != 0)
            _randomAccesses += double(count);
    }

    /** Latency of one random line fetch: DRAM latency plus the line's
     *  transfer. */
    uint64_t randomAccessCycles() const;

    double bytesStreamed() const { return _bytesStreamed.value(); }
    double randomAccesses() const { return _randomAccesses.value(); }

    /** Total bytes moved including random line fills. */
    double totalBytes() const;

    void reset();
    /** Attach this model's "mem" stat sub-group to @p group. */
    void registerStats(stats::StatGroup &group);
    stats::StatGroup &statGroup() { return _stats; }

  private:
    AccelParams _params;
    stats::StatGroup _stats{"mem"};
    mutable stats::Scalar _bytesStreamed;
    mutable stats::Scalar _randomAccesses;
};

} // namespace alr

#endif // ALR_ALRESCHA_SIM_MEMORY_HH
