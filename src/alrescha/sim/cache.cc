#include "alrescha/sim/cache.hh"

#include "common/logging.hh"

namespace alr {

CacheModel::CacheModel(const AccelParams &params, MemoryModel *memory)
    : _params(params), _memory(memory)
{
    ALR_ASSERT(memory != nullptr, "cache needs a memory model");
    uint32_t nlines =
        std::max<uint32_t>(1, params.cacheBytes / params.cacheLineBytes);
    _lines.assign(nlines, Line{});
    _fillCycles = _memory->randomAccessCycles();
    _lineStreamCycles = _memory->streamCycles(_params.cacheLineBytes);
}

bool
CacheModel::touch(CacheVec vec, Index chunk)
{
    // Direct-mapped: hash (vec, chunk) onto a line (lineIndex()).
    Line &line = _lines[lineIndex(vec, chunk)];
    if (line.valid && line.vec == vec && line.chunk == chunk) {
        ++_pending.hits;
        return true;
    }
    ++_pending.misses;
    line = Line{true, vec, chunk};
    return false;
}

uint64_t
CacheModel::read(CacheVec vec, Index chunk, bool on_critical_path,
                 bool *was_miss)
{
    // Port occupancy: the SRAM is pipelined, accepting one access per
    // cycle (busy cycles are counted per access); cacheLatency is the
    // (hidden or exposed) access latency.
    ++_pending.reads;
    bool hit = touch(vec, chunk);
    if (was_miss)
        *was_miss = !hit;
    if (!on_critical_path) {
        // Prefetched: the miss costs bandwidth (the line fill shares
        // the pipe with the block stream), never latency.
        return hit ? 0 : _lineStreamCycles;
    }
    return (hit ? 0 : _fillCycles) + uint64_t(_params.cacheLatency);
}

uint64_t
CacheModel::write(CacheVec vec, Index chunk, bool *was_miss)
{
    ++_pending.writes;
    // Writes are buffered; allocation happens off the critical path.
    bool hit = touch(vec, chunk);
    if (was_miss)
        *was_miss = !hit;
    return 0;
}

void
CacheModel::setLines(const std::vector<Line> &lines)
{
    ALR_ASSERT(lines.size() == _lines.size(), "cache line count mismatch");
    _lines = lines;
}

void
CacheModel::addPending(const Counts &counts)
{
    _pending.reads += counts.reads;
    _pending.writes += counts.writes;
    _pending.hits += counts.hits;
    _pending.misses += counts.misses;
}

void
CacheModel::flush()
{
    // Every count is an integer far below 2^53, so one add per run is
    // bit-identical to one per access.
    if (_pending.reads != 0)
        _reads += double(_pending.reads);
    if (_pending.writes != 0)
        _writes += double(_pending.writes);
    if (_pending.hits != 0)
        _hits += double(_pending.hits);
    if (_pending.misses != 0)
        _misses += double(_pending.misses);
    if (_pending.reads + _pending.writes != 0)
        _busyCycles += double(_pending.reads + _pending.writes);
    _memory->recordRandomAccesses(_pending.misses);
    _pending = Counts{};
}

void
CacheModel::reset()
{
    // Fully cleared lines, so a reset cache keys the timing memo like a
    // fresh one.
    _lines.assign(_lines.size(), Line{});
    _pending = Counts{};
    _reads.reset();
    _writes.reset();
    _hits.reset();
    _misses.reset();
    _busyCycles.reset();
}

size_t
CacheModel::occupancy() const
{
    size_t valid = 0;
    for (const Line &line : _lines)
        valid += line.valid ? 1 : 0;
    return valid;
}

void
CacheModel::registerStats(stats::StatGroup &group)
{
    _stats.registerScalar("reads", &_reads, "chunk reads");
    _stats.registerScalar("writes", &_writes, "chunk writes");
    _stats.registerScalar("hits", &_hits, "line hits");
    _stats.registerScalar("misses", &_misses, "line misses");
    _stats.registerScalar("busy_cycles", &_busyCycles,
                          "cycles the cache port was occupied");
    group.addChild(&_stats);
}

} // namespace alr
