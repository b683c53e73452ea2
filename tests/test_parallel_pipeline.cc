/**
 * @file
 * Determinism property tests for the parallel host-preprocessing
 * pipeline: encoding, Algorithm 1 conversion, schedule compilation,
 * and multi-engine execution must be bit-for-bit identical across
 * thread counts.  Serialized byte streams are compared so every field
 * (block descriptors, block-row pointers, payload stream, diagonal,
 * table entries, compiled schedule state) is covered.
 */

#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "alrescha/accelerator.hh"
#include "alrescha/config_table.hh"
#include "alrescha/format.hh"
#include "alrescha/multi.hh"
#include "alrescha/sim/schedule.hh"
#include "alrescha/sim/schedule_io.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "sparse/coo.hh"
#include "sparse/generators.hh"

namespace alr {
namespace {

std::string
serializeLd(const LocallyDenseMatrix &ld)
{
    std::ostringstream out;
    ld.serialize(out);
    return out.str();
}

std::string
serializeTable(const ConfigTable &t)
{
    std::ostringstream out;
    t.serialize(out);
    return out.str();
}

TEST(ParallelPipeline, EncodeIsThreadCountInvariant)
{
    Rng rng(11);
    CsrMatrix spd = gen::randomSpd(193, 5, rng);
    CsrMatrix rect = gen::randomSparse(170, 121, 7, rng);

    ThreadPool one(1);
    for (Index omega : {4u, 8u}) {
        std::string goldSym =
            serializeLd(LocallyDenseMatrix::encode(spd, omega,
                                                   LdLayout::SymGs, &one));
        std::string goldPlain =
            serializeLd(LocallyDenseMatrix::encode(rect, omega,
                                                   LdLayout::Plain, &one));
        for (int threads : {2, 8}) {
            ThreadPool pool(threads);
            EXPECT_EQ(serializeLd(LocallyDenseMatrix::encode(
                          spd, omega, LdLayout::SymGs, &pool)),
                      goldSym)
                << "omega " << omega << ", " << threads << " threads";
            EXPECT_EQ(serializeLd(LocallyDenseMatrix::encode(
                          rect, omega, LdLayout::Plain, &pool)),
                      goldPlain)
                << "omega " << omega << ", " << threads << " threads";
        }
    }
}

TEST(ParallelPipeline, ConvertIsThreadCountInvariant)
{
    Rng rng(12);
    CsrMatrix spd = gen::randomSpd(201, 6, rng);
    ThreadPool one(1);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(spd, 8, LdLayout::SymGs, &one);

    struct Case
    {
        KernelType kernel;
        bool reorder;
        GsSweep dir;
    };
    const Case cases[] = {
        {KernelType::SymGS, true, GsSweep::Forward},
        {KernelType::SymGS, true, GsSweep::Backward},
        {KernelType::SymGS, false, GsSweep::Forward},
        {KernelType::SpMV, true, GsSweep::Forward},
    };
    for (const Case &c : cases) {
        std::string gold = serializeTable(
            ConfigTable::convert(c.kernel, ld, c.reorder, c.dir, &one));
        for (int threads : {2, 8}) {
            ThreadPool pool(threads);
            EXPECT_EQ(serializeTable(ConfigTable::convert(
                          c.kernel, ld, c.reorder, c.dir, &pool)),
                      gold)
                << toString(c.kernel) << " with " << threads
                << " threads";
        }
    }
}

/**
 * A square matrix with a non-zero diagonal whose rows r % 4 == 3 hold
 * only their diagonal entry.  At omega 4 and 8 the last row of every
 * block therefore lies on such a row, so every off-diagonal block --
 * every SymGS GEMV path -- ends in an all-zero row, the case a gather
 * that writes before its emptiness test overruns on.  The edge is not
 * a multiple of omega, so the last block row is partial.
 */
CsrMatrix
lastRowEmptyMatrix(Index n)
{
    CooMatrix coo(n, n);
    for (Index r = 0; r < n; ++r) {
        coo.add(r, r, 4.0 + r % 3);
        if (r % 4 == 3)
            continue;
        coo.add(r, (r + 37) % n, -1.0);
        coo.add(r, (r * 7 + 11) % n, 0.5);
        coo.add(r, (r + n - 29) % n, -0.25);
    }
    return CsrMatrix::fromCoo(coo);
}

std::string
serializeSched(const ExecSchedule &s)
{
    std::ostringstream out;
    serializeRowStore(out, *s.rows);
    serializeSchedule(out, s);
    return out.str();
}

TEST(ParallelPipeline, CompileIsThreadCountInvariant)
{
    // Enough paths for several compile chunks, so the parallel passes
    // really split the work at every pool size.
    const CsrMatrix a = lastRowEmptyMatrix(8190);
    struct Table
    {
        KernelType kernel;
        GsSweep dir;
    };
    const Table tables[] = {
        {KernelType::SpMV, GsSweep::Forward},
        {KernelType::SymGS, GsSweep::Forward},
        {KernelType::SymGS, GsSweep::Backward},
    };
    ThreadPool one(1);
    for (Index omega : {4u, 8u}) {
        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::SymGs, &one);
        for (const Table &t : tables) {
            ConfigTable table =
                ConfigTable::convert(t.kernel, ld, true, t.dir, &one);
            ASSERT_GT(table.entries().size(), 4096u);
            for (bool skip : {true, false}) {
                AccelParams params;
                params.omega = omega;
                params.skipEmptyBlockRows = skip;
                ExecSchedule gold = compileSchedule(ld, table, params, &one);
                const std::string goldBytes = serializeSched(gold);

                // The fixture does exercise the empty-last-row case:
                // some off-diagonal block other than the last loses its
                // final row when empty rows are skipped.  (The store is
                // in block order whichever table built it.)
                if (skip && t.kernel == KernelType::SymGS) {
                    bool endsEmpty = false;
                    const RowStore &R = *gold.rows;
                    for (size_t j = 0; j + 1 < R.paths(); ++j) {
                        const LdBlockInfo &blk = ld.blocks()[j];
                        if (blk.isDiagonal() || R.pathRows(j) == 0)
                            continue;
                        Index last = std::min<Index>(
                            a.rows(), (blk.blockRow + 1) * omega);
                        endsEmpty |=
                            R.rowIndex[R.rowBegin[j + 1] - 1] + 1 < last;
                    }
                    EXPECT_TRUE(endsEmpty);
                }

                for (int threads : {2, 4, 8}) {
                    ThreadPool pool(threads);
                    EXPECT_EQ(serializeSched(compileSchedule(
                                  ld, table, params, &pool)),
                              goldBytes)
                        << toString(t.kernel) << " omega " << omega
                        << (skip ? " skipping" : " dense") << ", "
                        << threads << " threads";
                }
            }
        }
    }
}

TEST(ParallelPipeline, AcceleratorLoadMatchesAcrossHostThreads)
{
    Rng rng(13);
    CsrMatrix spd = gen::randomSpd(160, 5, rng);

    AccelParams p1;
    p1.hostThreads = 1;
    Accelerator serial(p1);
    serial.loadPde(spd);

    AccelParams p8;
    p8.hostThreads = 8;
    Accelerator parallel(p8);
    parallel.loadPde(spd);

    EXPECT_EQ(serializeLd(serial.matrix()),
              serializeLd(parallel.matrix()));
    EXPECT_EQ(serializeTable(serial.table(KernelType::SymGS)),
              serializeTable(parallel.table(KernelType::SymGS)));
    EXPECT_EQ(
        serializeTable(serial.table(KernelType::SymGS, GsSweep::Backward)),
        serializeTable(parallel.table(KernelType::SymGS,
                                      GsSweep::Backward)));
    EXPECT_EQ(serializeTable(serial.table(KernelType::SpMV)),
              serializeTable(parallel.table(KernelType::SpMV)));

    // Kernel results on the parallel-encoded program match exactly.
    DenseVector x(spd.cols(), 0.5);
    EXPECT_EQ(serial.spmv(x), parallel.spmv(x));
    DenseVector b(spd.rows(), 1.0);
    DenseVector xs(spd.rows(), 0.0), xp(spd.rows(), 0.0);
    serial.symgsSweep(b, xs, GsSweep::Symmetric);
    parallel.symgsSweep(b, xp, GsSweep::Symmetric);
    EXPECT_EQ(xs, xp);
}

TEST(ParallelPipeline, MultiAcceleratorResultsMatchAcrossThreadCounts)
{
    Rng rng(14);
    CsrMatrix a = gen::randomSpd(128, 4, rng);
    CsrMatrix adj = gen::rmat(7, 6, rng);
    DenseVector x(a.cols());
    for (Index i = 0; i < a.cols(); ++i)
        x[i] = Value(i % 7) * 0.25 - 0.5;

    DenseVector goldSpmv, goldBfs;
    uint64_t goldCycles = 0;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreadCount(threads);
        MultiParams mp;
        mp.numEngines = 4;
        MultiAccelerator multi(mp);
        multi.loadSpmv(a);
        DenseVector y = multi.spmv(x);
        multi.loadGraph(adj);
        GraphResult bfs = multi.bfs(0);
        uint64_t cycles = multi.report().cycles;
        if (threads == 1) {
            goldSpmv = y;
            goldBfs = bfs.values;
            goldCycles = cycles;
        } else {
            EXPECT_EQ(y, goldSpmv) << threads << " threads";
            EXPECT_EQ(bfs.values, goldBfs) << threads << " threads";
            EXPECT_EQ(cycles, goldCycles) << threads << " threads";
        }
    }
    ThreadPool::setGlobalThreadCount(0); // restore the env default
}

} // namespace
} // namespace alr
