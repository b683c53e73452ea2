/**
 * @file
 * Scale-out (multi-engine) tests: partition validity, functional
 * equivalence with a single accelerator, scaling of compute time,
 * and communication accounting.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "alrescha/multi.hh"
#include "common/random.hh"
#include "kernels/graph.hh"
#include "kernels/spmv.hh"
#include "sparse/generators.hh"

namespace alr {
namespace {

MultiParams
withEngines(int n)
{
    MultiParams p;
    p.numEngines = n;
    return p;
}

TEST(Multi, SlicesCoverAllRowsDisjointly)
{
    Rng rng(1);
    CsrMatrix a = gen::randomSpd(100, 5, rng);
    MultiAccelerator multi(withEngines(3));
    multi.loadSpmv(a);
    Index covered = 0;
    Index prevEnd = 0;
    for (int p = 0; p < multi.numEngines(); ++p) {
        auto [b, e] = multi.slice(p);
        EXPECT_EQ(b, prevEnd);
        EXPECT_LE(b, e);
        covered += e - b;
        prevEnd = e;
    }
    EXPECT_EQ(covered, 100u);
}

TEST(Multi, SpmvMatchesSingleEngine)
{
    Rng rng(2);
    CsrMatrix a = gen::blockStructured(256, 8, 4, 0.6, rng);
    DenseVector x(256);
    for (Index i = 0; i < 256; ++i)
        x[i] = 0.01 * Value(i);

    MultiAccelerator multi(withEngines(4));
    multi.loadSpmv(a);
    DenseVector got = multi.spmv(x);
    DenseVector want = spmv(a, x);
    for (Index i = 0; i < 256; ++i)
        EXPECT_NEAR(got[i], want[i], 1e-11);
}

TEST(Multi, GraphKernelsMatchReference)
{
    Rng rng(3);
    CsrMatrix g = gen::rmat(8, 5, rng);
    MultiAccelerator multi(withEngines(4));
    multi.loadGraph(g);

    EXPECT_EQ(multi.bfs(0).values, bfsReference(g, 0));

    DenseVector dijkstra = ssspReference(g, 0);
    DenseVector got = multi.sssp(0).values;
    for (size_t i = 0; i < dijkstra.size(); ++i) {
        if (std::isinf(dijkstra[i]))
            EXPECT_TRUE(std::isinf(got[i]));
        else
            EXPECT_NEAR(got[i], dijkstra[i], 1e-9);
    }
}

TEST(MultiDeath, GraphSourceOutOfRangeExitsCleanly)
{
    // An out-of-range source is a caller error: a clean exit 1, as on a
    // single accelerator, never an abort.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rng rng(7);
    CsrMatrix g = gen::rmat(6, 4, rng);
    MultiAccelerator multi(withEngines(2));
    multi.loadGraph(g);
    EXPECT_EXIT(multi.bfs(g.rows()), ::testing::ExitedWithCode(1),
                "source out of range");
    EXPECT_EXIT(multi.sssp(g.rows() + 5), ::testing::ExitedWithCode(1),
                "source out of range");
}

TEST(Multi, PagerankMatchesReference)
{
    Rng rng(4);
    CsrMatrix g = gen::powerLawGraph(400, 6, 0.9, rng, 0.5);
    MultiAccelerator multi(withEngines(3));
    multi.loadGraph(g);
    PageRankOptions opts;
    DenseVector got = multi.pagerank(opts).values;
    DenseVector want = pagerank(g, opts);
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-6);
}

TEST(Multi, ComputeTimeScalesDown)
{
    Rng rng(5);
    CsrMatrix a = gen::blockStructured(2048, 8, 5, 0.8, rng);
    DenseVector x(2048, 1.0);

    uint64_t prev = ~uint64_t(0);
    for (int engines : {1, 2, 4, 8}) {
        MultiAccelerator multi(withEngines(engines));
        multi.loadSpmv(a);
        multi.spmv(x);
        uint64_t compute = multi.report().computeCycles;
        EXPECT_LT(compute, prev)
            << engines << " engines should beat fewer";
        prev = compute;
    }
}

TEST(Multi, CommunicationIsAccounted)
{
    Rng rng(6);
    CsrMatrix g = gen::rmat(7, 4, rng);
    MultiAccelerator multi(withEngines(4));
    multi.loadGraph(g);
    multi.bfs(0);
    MultiReport r = multi.report();
    EXPECT_GT(r.commCycles, 0u);
    EXPECT_EQ(r.cycles, r.computeCycles + r.commCycles);
    EXPECT_GT(r.energyJoules, 0.0);
}

TEST(Multi, SingleEngineDegeneratesToPlainAccelerator)
{
    Rng rng(7);
    CsrMatrix a = gen::banded(128, 6, 0.8, rng);
    DenseVector x(128, 1.0);

    MultiAccelerator multi(withEngines(1));
    multi.loadSpmv(a);
    DenseVector y1 = multi.spmv(x);

    Accelerator single;
    single.loadSpmvOnly(a);
    DenseVector y2 = single.spmv(x);
    EXPECT_EQ(y1, y2);
}

TEST(Multi, MoreEnginesThanBlockRowsStillCorrect)
{
    Rng rng(8);
    CsrMatrix a = gen::randomSpd(16, 4, rng); // 2 block rows, 6 engines
    MultiAccelerator multi(withEngines(6));
    multi.loadSpmv(a);
    DenseVector x(16, 1.0);
    DenseVector want = spmv(a, x);
    DenseVector got = multi.spmv(x);
    for (Index i = 0; i < 16; ++i)
        EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(Multi, DerivedRatiosAreGuardedOnEmptyReports)
{
    // A report from an array that has run nothing must not divide by
    // zero: the communication share is 0 and the imbalance trivially 1.
    MultiAccelerator multi(withEngines(4));
    MultiReport r = multi.report();
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.commFraction(), 0.0);
    EXPECT_EQ(r.imbalance(), 1.0);
}

TEST(Multi, DerivedRatiosWithMoreEnginesThanRows)
{
    // rows < engines leaves some partitions empty (zero rows => zero
    // run cycles), which used to blow up the max/min imbalance ratio
    // and the comm share of an all-idle report.  The guarded accessors
    // must stay finite and the run itself correct.
    Rng rng(9);
    CsrMatrix a = gen::randomSpd(8, 3, rng); // 1 block row, 6 engines
    MultiAccelerator multi(withEngines(6));
    multi.loadSpmv(a);
    DenseVector x(8, 1.0);
    DenseVector want = spmv(a, x);
    DenseVector got = multi.spmv(x);
    for (Index i = 0; i < 8; ++i)
        EXPECT_NEAR(got[i], want[i], 1e-12);

    MultiReport r = multi.report();
    EXPECT_GE(r.commFraction(), 0.0);
    EXPECT_LE(r.commFraction(), 1.0);
    EXPECT_GE(r.imbalance(), 1.0);
    EXPECT_TRUE(std::isfinite(r.imbalance()));
    if (r.cycles > 0) {
        EXPECT_EQ(r.commFraction(),
                  double(r.commCycles) / double(r.cycles));
    }
}

} // namespace
} // namespace alr
