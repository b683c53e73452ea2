/**
 * @file
 * Direct unit tests of the simulator components: memory pipe, local
 * cache, FCU, and RCU -- the pieces the engine composes.  (The FCU's
 * row reduction and the link stack's buffer live with the reference
 * engine; their FcuUnit and LinkStackUnit cases are in
 * test_graph_equivalence.cc and test_schedule.cc.)
 */

#include <gtest/gtest.h>

#include "alrescha/sim/cache.hh"
#include "alrescha/sim/fcu.hh"
#include "alrescha/sim/memory.hh"
#include "alrescha/sim/rcu.hh"

namespace alr {
namespace {

AccelParams
defaults()
{
    return AccelParams{};
}

TEST(MemoryUnit, StreamCyclesCeilAgainstBandwidth)
{
    MemoryModel mem(defaults());
    // 288 GB/s at 2.5 GHz = 115.2 B/cycle.
    EXPECT_EQ(mem.streamCycles(0), 0u);
    EXPECT_EQ(mem.streamCycles(1), 1u);
    EXPECT_EQ(mem.streamCycles(115), 1u);
    EXPECT_EQ(mem.streamCycles(116), 2u);
    EXPECT_EQ(mem.streamCycles(1152), 10u);
}

TEST(MemoryUnit, StreamCyclesExactForIntegralBytesPerCycle)
{
    // 2 GB/s at 1 GHz = exactly 2 B/cycle: the cycle count must use
    // exact integer ceil-division.  The old double-based rounding loses
    // the low bits of byte counts above 2^53 -- (2^54 + 2) / 2 computed
    // through doubles rounds the numerator to 2^54 and returns 2^53
    // instead of 2^53 + 1.
    AccelParams p;
    p.clockGhz = 1.0;
    p.memBandwidthGBs = 2.0;
    MemoryModel mem(p);
    EXPECT_EQ(mem.streamCycles(0), 0u);
    EXPECT_EQ(mem.streamCycles(1), 1u);
    EXPECT_EQ(mem.streamCycles(2), 1u);
    EXPECT_EQ(mem.streamCycles(3), 2u);
    EXPECT_EQ(mem.streamCycles((uint64_t(1) << 54) + 2),
              (uint64_t(1) << 53) + 1);
}

TEST(MemoryUnit, TrafficAccounting)
{
    MemoryModel mem(defaults());
    mem.recordStream(1000);
    mem.recordStream(24);
    EXPECT_DOUBLE_EQ(mem.bytesStreamed(), 1024.0);
    mem.recordRandomAccesses(1);
    EXPECT_GT(mem.randomAccessCycles(), uint64_t(defaults().dramLatency));
    EXPECT_DOUBLE_EQ(mem.totalBytes(),
                     1024.0 + defaults().cacheLineBytes);
    mem.reset();
    EXPECT_DOUBLE_EQ(mem.totalBytes(), 0.0);
}

TEST(CacheUnit, HitAfterMissSameChunk)
{
    AccelParams p = defaults();
    MemoryModel mem(p);
    CacheModel cache(p, &mem);

    // First dependent read misses: latency + fill.
    uint64_t first = cache.read(CacheVec::Diag, 3, true);
    EXPECT_GT(first, uint64_t(p.cacheLatency));
    // Second dependent read hits: just the access latency.
    uint64_t second = cache.read(CacheVec::Diag, 3, true);
    EXPECT_EQ(second, uint64_t(p.cacheLatency));
    EXPECT_DOUBLE_EQ(cache.hits(), 1.0);
    EXPECT_DOUBLE_EQ(cache.misses(), 1.0);
}

TEST(CacheUnit, StreamingReadsNeverStallOnLatency)
{
    AccelParams p = defaults();
    MemoryModel mem(p);
    CacheModel cache(p, &mem);
    // Prefetched miss costs only the line's bandwidth share.
    uint64_t miss = cache.read(CacheVec::Xt, 7, false);
    EXPECT_LE(miss, mem.streamCycles(p.cacheLineBytes));
    // Prefetched hit costs nothing.
    EXPECT_EQ(cache.read(CacheVec::Xt, 7, false), 0u);
}

TEST(CacheUnit, DistinctVectorsDoNotAlias)
{
    AccelParams p = defaults();
    MemoryModel mem(p);
    CacheModel cache(p, &mem);
    cache.read(CacheVec::Xt, 0, false);
    cache.read(CacheVec::Xprev, 0, false);
    // Same chunk index, different vector: both are misses.
    EXPECT_DOUBLE_EQ(cache.misses(), 2.0);
}

TEST(CacheUnit, CapacityEviction)
{
    AccelParams p = defaults();
    p.cacheBytes = 128; // 2 lines only
    MemoryModel mem(p);
    CacheModel cache(p, &mem);
    for (Index c = 0; c < 8; ++c)
        cache.read(CacheVec::Xt, c, false);
    // Re-reading the first chunk must miss again.
    double missesBefore = cache.misses();
    cache.read(CacheVec::Xt, 0, false);
    EXPECT_GT(cache.misses(), missesBefore);
}

TEST(FcuUnit, FillLatencyFollowsTreeDepth)
{
    AccelParams p = defaults(); // omega 8: depth 3
    Fcu fcu(p);
    EXPECT_EQ(fcu.fillLatency(ReduceOp::Sum),
              p.aluLatency + 3 * p.reSumLatency);
    EXPECT_EQ(fcu.fillLatency(ReduceOp::Min),
              p.aluLatency + 3 * p.reMinLatency);
}

TEST(RcuUnit, FirstConfigurationChargesProgramTime)
{
    AccelParams p = defaults();
    MemoryModel mem(p);
    Rcu rcu(p, &mem);
    EXPECT_FALSE(rcu.configured().has_value());
    uint64_t c = rcu.reconfigure(DataPathType::Gemv);
    EXPECT_EQ(c, uint64_t(p.configCycles));
    EXPECT_EQ(*rcu.configured(), DataPathType::Gemv);
}

TEST(RcuUnit, RepeatedSamePathIsFree)
{
    AccelParams p = defaults();
    MemoryModel mem(p);
    Rcu rcu(p, &mem);
    rcu.reconfigure(DataPathType::Gemv);
    EXPECT_EQ(rcu.reconfigure(DataPathType::Gemv), 0u);
    EXPECT_DOUBLE_EQ(rcu.reconfigurations(), 1.0);
}

TEST(RcuUnit, SwitchHiddenUnderDrainByDefault)
{
    AccelParams p = defaults(); // configCycles 8 < drain 12
    MemoryModel mem(p);
    Rcu rcu(p, &mem);
    rcu.reconfigure(DataPathType::Gemv);
    uint64_t c = rcu.reconfigure(DataPathType::DSymgs);
    EXPECT_EQ(c, uint64_t(p.drainCycles()));
    EXPECT_DOUBLE_EQ(rcu.reconfigStallCycles(), 0.0);
}

TEST(RcuUnit, SlowSwitchExposesStall)
{
    AccelParams p = defaults();
    p.configCycles = 50;
    MemoryModel mem(p);
    Rcu rcu(p, &mem);
    rcu.reconfigure(DataPathType::Gemv);
    uint64_t c = rcu.reconfigure(DataPathType::DSymgs);
    EXPECT_EQ(c, uint64_t(p.drainCycles() + (50 - p.drainCycles())));
    EXPECT_DOUBLE_EQ(rcu.reconfigStallCycles(),
                     double(50 - p.drainCycles()));
}

TEST(RcuUnit, PeOpsCountAndLatency)
{
    AccelParams p = defaults();
    MemoryModel mem(p);
    Rcu rcu(p, &mem);
    EXPECT_EQ(rcu.peOp(), uint64_t(p.peLatency));
    rcu.peOp();
    EXPECT_DOUBLE_EQ(rcu.peOps(), 2.0);
    rcu.reset();
    EXPECT_DOUBLE_EQ(rcu.peOps(), 0.0);
    EXPECT_FALSE(rcu.configured().has_value());
}

TEST(ParamsUnit, DerivedQuantities)
{
    AccelParams p;
    EXPECT_DOUBLE_EQ(p.bytesPerCycle(), 115.2);
    EXPECT_DOUBLE_EQ(p.secondsPerCycle(), 1e-9 / 2.5);
    EXPECT_EQ(p.treeDepth(), 3);
    p.omega = 16;
    EXPECT_EQ(p.treeDepth(), 4);
    p.omega = 5; // non-power-of-two rounds up
    EXPECT_EQ(p.treeDepth(), 3);
}

} // namespace
} // namespace alr
