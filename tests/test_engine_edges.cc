/**
 * @file
 * Edge-case and robustness tests for the engine plus the trace
 * facility: degenerate sizes, isolated vertices, padding tails,
 * row-skipping equivalence, and table switching.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "alrescha/accelerator.hh"
#include "common/random.hh"
#include "kernels/graph.hh"
#include "kernels/spmv.hh"
#include "kernels/symgs.hh"
#include "reference/reference_engine.hh"
#include "sparse/coo.hh"
#include "sparse/generators.hh"

namespace alr {
namespace {

DenseVector
randomVector(Index n, uint64_t seed)
{
    Rng rng(seed);
    DenseVector v(n);
    for (auto &e : v)
        e = rng.nextDouble(-1.0, 1.0);
    return v;
}

TEST(EngineEdge, OneByOneMatrix)
{
    CooMatrix coo(1, 1);
    coo.add(0, 0, 4.0);
    CsrMatrix a = CsrMatrix::fromCoo(coo);

    Accelerator acc;
    acc.loadPde(a);
    EXPECT_DOUBLE_EQ(acc.spmv({2.0})[0], 8.0);

    DenseVector b = {12.0}, x = {0.0};
    acc.symgsSweep(b, x, GsSweep::Symmetric);
    EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST(EngineEdge, MatrixSmallerThanOmega)
{
    Rng rng(1);
    CsrMatrix a = gen::randomSpd(5, 3, rng); // omega = 8 > n
    Accelerator acc;
    acc.loadPde(a);

    DenseVector x = randomVector(5, 2);
    DenseVector want = spmv(a, x);
    DenseVector got = acc.spmv(x);
    for (Index i = 0; i < 5; ++i)
        EXPECT_NEAR(got[i], want[i], 1e-12);

    DenseVector b = randomVector(5, 3), xa(5, 0.0), xr(5, 0.0);
    acc.symgsSweep(b, xa, GsSweep::Symmetric);
    gaussSeidelSweep(a, b, xr, GsSweep::Symmetric);
    for (Index i = 0; i < 5; ++i)
        EXPECT_NEAR(xa[i], xr[i], 1e-12);
}

TEST(EngineEdge, PaddingTailRowsStayUntouched)
{
    // 13 rows with omega 8: the last block row has 3 padded rows.
    Rng rng(4);
    CsrMatrix a = gen::randomSpd(13, 4, rng);
    Accelerator acc;
    acc.loadPde(a);
    DenseVector x = randomVector(13, 5);
    DenseVector got = acc.spmv(x);
    ASSERT_EQ(got.size(), 13u);
    DenseVector want = spmv(a, x);
    for (Index i = 0; i < 13; ++i)
        EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(EngineEdge, GraphWithIsolatedVertices)
{
    // Vertices 3 and 4 have no edges at all.
    CooMatrix coo(5, 5);
    coo.add(0, 1, 1.0);
    coo.add(1, 2, 1.0);
    CsrMatrix g = CsrMatrix::fromCoo(coo);

    Accelerator acc;
    acc.loadGraph(g);
    GraphResult bfs = acc.bfs(0);
    EXPECT_DOUBLE_EQ(bfs.values[2], 2.0);
    EXPECT_TRUE(std::isinf(bfs.values[3]));
    EXPECT_TRUE(std::isinf(bfs.values[4]));

    GraphResult pr = acc.pagerank();
    Value total = 0.0;
    for (Value v : pr.values)
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(EngineEdge, SourceOnlyGraph)
{
    // All edges out of vertex 0; relaxation converges in one round + fix.
    CooMatrix coo(4, 4);
    for (Index v = 1; v < 4; ++v)
        coo.add(0, v, Value(v));
    CsrMatrix g = CsrMatrix::fromCoo(coo);
    Accelerator acc;
    acc.loadGraph(g);
    GraphResult res = acc.sssp(0);
    EXPECT_DOUBLE_EQ(res.values[3], 3.0);
    EXPECT_LE(res.rounds, 3);
}

TEST(EngineEdge, RowSkippingIsFunctionallyInvisible)
{
    Rng rng(6);
    CsrMatrix g = gen::rmat(7, 4, rng);

    AccelParams dense;
    dense.skipEmptyBlockRows = false;
    AccelParams skip;
    skip.skipEmptyBlockRows = true;

    Accelerator a1(dense), a2(skip);
    a1.loadGraph(g);
    a2.loadGraph(g);
    EXPECT_EQ(a1.bfs(0).values, a2.bfs(0).values);

    // Skipping must strictly reduce traffic on a sparse-block graph.
    a1.resetStats();
    a2.resetStats();
    a1.spmv(DenseVector(g.cols(), 1.0));
    a2.spmv(DenseVector(g.cols(), 1.0));
    EXPECT_LT(a2.engine().memory().bytesStreamed(),
              a1.engine().memory().bytesStreamed());
    EXPECT_LE(a2.engine().totalCycles(), a1.engine().totalCycles());
}

TEST(EngineEdge, ReprogrammingBetweenKernelsIsClean)
{
    Rng rng(7);
    CsrMatrix a = gen::banded(40, 4, 0.8, rng);
    CsrMatrix g = gen::rmat(6, 4, rng);

    Accelerator acc;
    acc.loadPde(a);
    DenseVector b(40, 1.0), x(40, 0.0);
    acc.symgsSweep(b, x, GsSweep::Forward);

    acc.loadGraph(g);
    GraphResult res = acc.bfs(0);
    EXPECT_EQ(res.values, bfsReference(g, 0));

    acc.loadPde(a);
    DenseVector x2(40, 0.0), xr(40, 0.0);
    acc.symgsSweep(b, x2, GsSweep::Forward);
    gaussSeidelSweep(a, b, xr, GsSweep::Forward);
    for (Index i = 0; i < 40; ++i)
        EXPECT_NEAR(x2[i], xr[i], 1e-12);
}

TEST(EngineEdge, BackwardSweepOnPaddedMatrix)
{
    Rng rng(9);
    CsrMatrix a = gen::randomSpd(19, 4, rng);
    Accelerator acc;
    acc.loadPde(a);
    DenseVector b = randomVector(19, 10);
    DenseVector xa = randomVector(19, 11);
    DenseVector xr = xa;
    acc.symgsSweep(b, xa, GsSweep::Backward);
    gaussSeidelSweep(a, b, xr, GsSweep::Backward);
    for (Index i = 0; i < 19; ++i)
        EXPECT_NEAR(xa[i], xr[i], 1e-11);
}

TEST(EngineEdge, RepeatedSweepsConvergeToSolution)
{
    Rng rng(12);
    CsrMatrix a = gen::banded(48, 3, 0.8, rng);
    DenseVector xTrue = randomVector(48, 13);
    DenseVector b = spmv(a, xTrue);

    Accelerator acc;
    acc.loadPde(a);
    DenseVector x(48, 0.0);
    for (int it = 0; it < 60; ++it)
        acc.symgsSweep(b, x, GsSweep::Symmetric);
    for (Index i = 0; i < 48; ++i)
        EXPECT_NEAR(x[i], xTrue[i], 1e-6);
}

TEST(EngineEdge, FrontierSkippingIsFunctionallyInvisible)
{
    Rng rng(20);
    CsrMatrix g = gen::roadGrid(14, 12, 0.02, rng);

    AccelParams dense;
    dense.frontierSkipping = false;
    AccelParams front;
    front.frontierSkipping = true;

    Accelerator a1(dense), a2(front);
    a1.loadGraph(g);
    a2.loadGraph(g);
    EXPECT_EQ(a1.bfs(3).values, a2.bfs(3).values);
    EXPECT_EQ(a1.sssp(3).values, a2.sssp(3).values);
    EXPECT_EQ(a1.connectedComponents().values,
              a2.connectedComponents().values);
}

TEST(EngineEdge, FrontierSkippingCutsTrafficOnHighDiameterGraphs)
{
    Rng rng(21);
    CsrMatrix g = gen::roadGrid(24, 20, 0.0, rng);

    AccelParams dense;
    dense.frontierSkipping = false;
    AccelParams front;
    front.frontierSkipping = true;

    Accelerator a1(dense), a2(front);
    a1.loadGraph(g);
    a2.loadGraph(g);
    a1.resetStats();
    a1.bfs(0);
    a2.resetStats();
    a2.bfs(0);

    EXPECT_LT(a2.engine().memory().bytesStreamed(),
              0.5 * a1.engine().memory().bytesStreamed());
    EXPECT_LT(a2.engine().totalCycles(), a1.engine().totalCycles());
}

} // namespace
} // namespace alr
