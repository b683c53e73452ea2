/**
 * @file
 * Timing-model invariants of the cycle-level engine: pipelined GEMV
 * throughput, D-SymGS serialization, reconfiguration hiding, bandwidth
 * utilization tracking block density, and cache accounting; and the
 * link stack's counters.
 */

#include <gtest/gtest.h>

#include "alrescha/accelerator.hh"
#include "common/random.hh"
#include "sparse/generators.hh"

namespace alr {
namespace {

DenseVector
ones(Index n)
{
    return DenseVector(n, 1.0);
}

TEST(Timing, SpmvCyclesScaleWithBlocks)
{
    Rng rng(1);
    CsrMatrix small = gen::blockStructured(128, 8, 3, 0.9, rng);
    CsrMatrix large = gen::blockStructured(512, 8, 3, 0.9, rng);

    Accelerator a1, a2;
    a1.loadSpmvOnly(small);
    a2.loadSpmvOnly(large);
    a1.spmv(ones(small.cols()));
    a2.spmv(ones(large.cols()));

    double c1 = double(a1.engine().totalCycles());
    double c2 = double(a2.engine().totalCycles());
    double b1 = double(a1.matrix().blocks().size());
    double b2 = double(a2.matrix().blocks().size());
    // Steady-state: roughly omega cycles per block.
    EXPECT_NEAR(c2 / c1, b2 / b1, 0.35 * b2 / b1);
}

TEST(Timing, GemvThroughputApproachesOneBlockPerOmegaCycles)
{
    Rng rng(2);
    CsrMatrix a = gen::blockStructured(1024, 8, 6, 1.0, rng);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(ones(a.cols()));

    double cycles = double(acc.engine().totalCycles());
    double blocks = double(acc.matrix().blocks().size());
    double per_block = cycles / blocks;
    EXPECT_GE(per_block, 8.0);   // cannot beat the issue rate
    EXPECT_LE(per_block, 11.0);  // small overheads only
}

TEST(Timing, SymGsSerializesDiagonalBlocks)
{
    // A block-diagonal-only matrix is pure D-SymGS; the same nnz spread
    // off-diagonal is pure GEMV and must run much faster per sweep.
    Rng rng(3);
    CsrMatrix diagOnly = gen::blockStructured(512, 8, 1, 0.9, rng);
    CsrMatrix spread = gen::blockStructured(512, 8, 6, 0.9, rng);

    Accelerator a1, a2;
    a1.loadPde(diagOnly);
    a2.loadPde(spread);

    DenseVector b = ones(512), x1(512, 0.0), x2(512, 0.0);
    a1.symgsSweep(b, x1, GsSweep::Forward);
    a2.symgsSweep(b, x2, GsSweep::Forward);

    double seqFrac1 = a1.engine().sequentialOpFraction();
    double seqFrac2 = a2.engine().sequentialOpFraction();
    EXPECT_GT(seqFrac1, 0.9);
    EXPECT_LT(seqFrac2, 0.5);

    // Per-nonzero cost is far higher when everything is serialized.
    double perNnz1 = double(a1.engine().totalCycles()) / diagOnly.nnz();
    double perNnz2 = double(a2.engine().totalCycles()) / spread.nnz();
    EXPECT_GT(perNnz1, 2.0 * perNnz2);
}

TEST(Timing, DefaultReconfigurationIsHiddenByDrain)
{
    Rng rng(4);
    CsrMatrix a = gen::banded(256, 10, 0.8, rng);
    Accelerator acc;
    acc.loadPde(a);
    DenseVector b = ones(256), x(256, 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);
    EXPECT_GT(acc.engine().rcu().reconfigurations(), 0.0);
    // Default configCycles (8) < drain (12): no exposed stall.
    EXPECT_DOUBLE_EQ(acc.engine().rcu().reconfigStallCycles(), 0.0);
}

TEST(Timing, SlowReconfigurationExposesStalls)
{
    AccelParams p;
    p.configCycles = 100; // far beyond the drain time
    Rng rng(5);
    CsrMatrix a = gen::banded(256, 10, 0.8, rng);
    Accelerator acc(p);
    acc.loadPde(a);
    DenseVector b = ones(256), x(256, 0.0);
    acc.symgsSweep(b, x, GsSweep::Forward);
    EXPECT_GT(acc.engine().rcu().reconfigStallCycles(), 0.0);
}

TEST(Timing, SlowerReconfigMeansMoreCycles)
{
    Rng rng(6);
    CsrMatrix a = gen::banded(256, 10, 0.8, rng);
    uint64_t prev = 0;
    for (int cfg : {8, 50, 200}) {
        AccelParams p;
        p.configCycles = cfg;
        Accelerator acc(p);
        acc.loadPde(a);
        DenseVector b = ones(256), x(256, 0.0);
        acc.symgsSweep(b, x, GsSweep::Forward);
        EXPECT_GE(acc.engine().totalCycles(), prev);
        prev = acc.engine().totalCycles();
    }
}

TEST(Timing, BandwidthUtilizationTracksBlockDensity)
{
    Rng rng(7);
    CsrMatrix dense = gen::blockStructured(512, 8, 4, 1.0, rng);
    CsrMatrix sparse = gen::blockStructured(512, 8, 4, 0.2, rng);

    Accelerator a1, a2;
    a1.loadSpmvOnly(dense);
    a2.loadSpmvOnly(sparse);
    a1.spmv(ones(512));
    a2.spmv(ones(512));

    EXPECT_GT(a1.engine().bandwidthUtilization(),
              a2.engine().bandwidthUtilization());
}

TEST(Timing, CacheCountsChunkReads)
{
    Rng rng(8);
    CsrMatrix a = gen::blockStructured(256, 8, 4, 0.9, rng);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(ones(256));
    // One x-chunk read per block.
    EXPECT_DOUBLE_EQ(acc.engine().rcu().cache().reads(),
                     double(acc.matrix().blocks().size()));
    EXPECT_GT(acc.engine().cacheTimeFraction(), 0.0);
    EXPECT_LT(acc.engine().cacheTimeFraction(), 1.0);
}

TEST(Timing, LinkStackBalancedAndBounded)
{
    Rng rng(9);
    CsrMatrix a = gen::banded(512, 20, 0.7, rng);
    Accelerator acc;
    acc.loadPde(a);
    DenseVector b = ones(512), x(512, 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);

    // Each sweep pushes one partial per off-diagonal block, and its
    // block row's chain pops every one.
    double offDiagonal = 0.0;
    for (const LdBlockInfo &blk : acc.matrix().blocks())
        offDiagonal += blk.isDiagonal() ? 0.0 : 1.0;
    const LinkStack &ls = acc.engine().rcu().linkStack();
    EXPECT_EQ(ls.pushes(), 2.0 * offDiagonal);
    EXPECT_EQ(ls.pops(), ls.pushes());
    // Depth bounded by the widest block row's off-diagonal count.
    EXPECT_GE(ls.maxDepth(), 1.0);
    EXPECT_LE(ls.maxDepth(), 20.0 / 8.0 * 2.0 + 2.0);
}

TEST(LinkStackUnit, NotedCountsFlushIntoStats)
{
    LinkStack ls;
    ls.note(3, 3, 2);
    ls.note(1, 1, 1);
    EXPECT_EQ(ls.pushes(), 4.0); // pending counts already show
    ls.flush();
    ls.note(0, 0, 1);
    ls.flush();
    EXPECT_EQ(ls.pushes(), 4.0);
    EXPECT_EQ(ls.pops(), 4.0);
    EXPECT_EQ(ls.maxDepth(), 2.0); // the deepest run, not the last
    ls.reset();
    EXPECT_EQ(ls.pushes(), 0.0);
}

TEST(Timing, SecondsFollowClock)
{
    Rng rng(10);
    CsrMatrix a = gen::blockStructured(256, 8, 3, 0.8, rng);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(ones(256));
    double cycles = double(acc.engine().totalCycles());
    EXPECT_DOUBLE_EQ(acc.engine().seconds(), cycles * 1e-9 / 2.5);
}

TEST(Timing, ResetClearsAllCounters)
{
    Rng rng(11);
    CsrMatrix a = gen::blockStructured(128, 8, 3, 0.8, rng);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(ones(128));
    EXPECT_GT(acc.engine().totalCycles(), 0u);
    acc.resetStats();
    EXPECT_EQ(acc.engine().totalCycles(), 0u);
    EXPECT_DOUBLE_EQ(acc.engine().memory().bytesStreamed(), 0.0);
    EXPECT_DOUBLE_EQ(acc.engine().rcu().cache().reads(), 0.0);
}

TEST(Timing, MemoryBytesMatchStreamedPayload)
{
    Rng rng(12);
    CsrMatrix a = gen::blockStructured(128, 8, 3, 0.8, rng);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(ones(128));
    EXPECT_DOUBLE_EQ(acc.engine().memory().bytesStreamed(),
                     double(acc.matrix().streamBytes()));
}

TEST(Timing, WiderBlocksBecomeMemoryBound)
{
    // With omega=16 a block row is 128 B/cycle > the 115.2 B/cycle pipe:
    // the stream, not the issue rate, limits throughput.
    AccelParams p;
    p.omega = 16;
    Rng rng(13);
    CsrMatrix a = gen::blockStructured(512, 16, 4, 1.0, rng);
    Accelerator acc(p);
    acc.loadSpmvOnly(a);
    acc.spmv(ones(512));
    double cycles = double(acc.engine().totalCycles());
    double blocks = double(acc.matrix().blocks().size());
    double per_block = cycles / blocks;
    double mem_bound = 16.0 * 16.0 * 8.0 / p.bytesPerCycle();
    EXPECT_GE(per_block, mem_bound * 0.95);
}

} // namespace
} // namespace alr
