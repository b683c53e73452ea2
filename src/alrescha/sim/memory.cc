#include "alrescha/sim/memory.hh"

#include <cmath>

namespace alr {

uint64_t
MemoryModel::streamCycles(uint64_t bytes) const
{
    double bpc = _params.bytesPerCycle();
    // double(bytes) rounds above 2^53 bytes, so ceil(double/double) can
    // come out one cycle short near such boundaries.  When the
    // bandwidth is a whole number of bytes per cycle (common in bench
    // sweeps), exact integer ceil-division avoids the hazard; the
    // fractional case stays in doubles (its cycle counts are far below
    // the 2^53 loss threshold for any realistic byte count).
    uint64_t ibpc = uint64_t(bpc);
    if (double(ibpc) == bpc && ibpc > 0)
        return (bytes + ibpc - 1) / ibpc;
    return uint64_t(std::ceil(double(bytes) / bpc));
}

uint64_t
MemoryModel::randomAccessCycles() const
{
    return uint64_t(_params.dramLatency) +
           streamCycles(_params.cacheLineBytes);
}

double
MemoryModel::totalBytes() const
{
    return _bytesStreamed.value() +
           _randomAccesses.value() * double(_params.cacheLineBytes);
}

void
MemoryModel::reset()
{
    _bytesStreamed.reset();
    _randomAccesses.reset();
}

void
MemoryModel::registerStats(stats::StatGroup &group)
{
    _stats.registerScalar("bytes_streamed", &_bytesStreamed,
                          "sequential payload bytes streamed from DRAM");
    _stats.registerScalar("random_accesses", &_randomAccesses,
                          "random line fetches (cache misses)");
    group.addChild(&_stats);
}

} // namespace alr
