/**
 * @file
 * Public-API tests for the Accelerator: loading, kernel dispatch,
 * telemetry reports, and misuse rejection.
 */

#include <gtest/gtest.h>

#include "alrescha/accelerator.hh"
#include "common/random.hh"
#include "kernels/spmv.hh"
#include "sparse/coo.hh"
#include "sparse/generators.hh"

namespace alr {
namespace {

TEST(Accelerator, ReportAggregatesTelemetry)
{
    Rng rng(1);
    CsrMatrix a = gen::banded(256, 8, 0.7, rng);
    Accelerator acc;
    acc.loadPde(a);

    DenseVector b(256, 1.0), x(256, 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);

    AccelReport r = acc.report();
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.energyJoules, 0.0);
    EXPECT_GT(r.bytesFromMemory, 0.0);
    EXPECT_GT(r.bandwidthUtilization, 0.0);
    EXPECT_LE(r.bandwidthUtilization, 1.0);
    EXPECT_GT(r.sequentialOpFraction, 0.0);
    EXPECT_LT(r.sequentialOpFraction, 1.0);
    EXPECT_GT(r.reconfigurations, 0.0);
    EXPECT_NEAR(r.energy.total(), r.energyJoules, 1e-15);
}

TEST(Accelerator, EnergyBreakdownComponentsPositive)
{
    Rng rng(2);
    CsrMatrix a = gen::blockStructured(128, 8, 3, 0.8, rng);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(DenseVector(128, 1.0));

    EnergyBreakdown e = acc.report().energy;
    EXPECT_GT(e.dram, 0.0);
    EXPECT_GT(e.sram, 0.0);
    EXPECT_GT(e.compute, 0.0);
    EXPECT_GT(e.staticEnergy, 0.0);
}

TEST(Accelerator, TableAccessorsExposeLoadedKernels)
{
    Rng rng(3);
    CsrMatrix a = gen::banded(64, 4, 0.8, rng);
    Accelerator acc;
    acc.loadPde(a);
    EXPECT_EQ(acc.table(KernelType::SymGS).kernel(), KernelType::SymGS);
    EXPECT_EQ(acc.table(KernelType::SymGS, GsSweep::Backward).direction(),
              GsSweep::Backward);
    EXPECT_EQ(acc.table(KernelType::SpMV).kernel(), KernelType::SpMV);

    CsrMatrix g = gen::rmat(6, 4, rng);
    acc.loadGraph(g);
    EXPECT_EQ(acc.table(KernelType::BFS).kernel(), KernelType::BFS);
    EXPECT_EQ(acc.table(KernelType::PageRank).kernel(),
              KernelType::PageRank);
}

TEST(AcceleratorDeath, GraphKernelsNeedGraphLoad)
{
    Rng rng(4);
    CsrMatrix a = gen::banded(64, 4, 0.8, rng);
    Accelerator acc;
    acc.loadPde(a);
    EXPECT_DEATH(acc.bfs(0), "loadGraph");
}

TEST(AcceleratorDeath, SymGsNeedsPdeLoad)
{
    Rng rng(5);
    CsrMatrix g = gen::rmat(6, 4, rng);
    Accelerator acc;
    acc.loadGraph(g);
    DenseVector b(g.rows(), 1.0), x(g.rows(), 0.0);
    EXPECT_DEATH(acc.symgsSweep(b, x, GsSweep::Forward), "loadPde");
}

TEST(AcceleratorDeath, KernelsBeforeLoadPanic)
{
    Accelerator acc;
    EXPECT_DEATH(acc.spmv({1.0}), "no matrix loaded");
}

// Caller errors end in fatal (exit 1), not in an abort: only the
// load-order checks above are internal invariants.  fatal's exit runs
// static destructors, among them the thread pool's, which must not
// join workers a forked child never had: these death tests re-execute
// the binary ("threadsafe") instead of forking mid-test.
TEST(AcceleratorDeath, NonSquarePdeExitsCleanly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    CooMatrix coo(4, 6);
    coo.add(0, 5, 1.0);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    Accelerator acc;
    EXPECT_EXIT(acc.loadPde(a), ::testing::ExitedWithCode(1),
                "PDE systems are square");
}

TEST(AcceleratorDeath, NonSquareGraphExitsCleanly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    CooMatrix coo(6, 4);
    coo.add(5, 0, 1.0);
    CsrMatrix adj = CsrMatrix::fromCoo(coo);
    Accelerator acc;
    EXPECT_EXIT(acc.loadGraph(adj), ::testing::ExitedWithCode(1),
                "adjacency must be square");
}

TEST(AcceleratorDeath, GraphSourceOutOfRangeExitsCleanly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rng rng(7);
    CsrMatrix g = gen::rmat(6, 4, rng);
    Accelerator acc;
    acc.loadGraph(g);
    EXPECT_EXIT(acc.bfs(g.rows()), ::testing::ExitedWithCode(1),
                "source out of range");
    EXPECT_EXIT(acc.sssp(g.rows() + 5), ::testing::ExitedWithCode(1),
                "source out of range");
}

TEST(Accelerator, ReloadReplacesMatrix)
{
    Rng rng(6);
    CsrMatrix a1 = gen::banded(64, 4, 0.8, rng);
    CsrMatrix a2 = gen::banded(128, 4, 0.8, rng);
    Accelerator acc;
    acc.loadPde(a1);
    EXPECT_EQ(acc.matrix().rows(), 64u);
    acc.loadPde(a2);
    EXPECT_EQ(acc.matrix().rows(), 128u);
    DenseVector x(128, 1.0);
    EXPECT_EQ(acc.spmv(x).size(), 128u);
}

TEST(Accelerator, StatsAccumulateAcrossRunsUntilReset)
{
    Rng rng(7);
    CsrMatrix a = gen::blockStructured(128, 8, 3, 0.8, rng);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    DenseVector x(128, 1.0);
    acc.spmv(x);
    uint64_t one = acc.engine().totalCycles();
    acc.spmv(x);
    EXPECT_NEAR(double(acc.engine().totalCycles()), 2.0 * double(one),
                double(one) * 0.1);
}

TEST(Accelerator, CustomOmegaFlowsThrough)
{
    AccelParams p;
    p.omega = 4;
    Rng rng(8);
    CsrMatrix a = gen::banded(64, 4, 0.8, rng);
    Accelerator acc(p);
    acc.loadPde(a);
    EXPECT_EQ(acc.matrix().omega(), 4u);
    EXPECT_EQ(acc.table(KernelType::SymGS).omega(), 4u);
}

TEST(Accelerator, PcgReportsHistoryAndConverges)
{
    CsrMatrix a = gen::stencil2d(10, 10, 5);
    DenseVector xTrue(100, 0.5);
    DenseVector b = spmv(a, xTrue);
    Accelerator acc;
    acc.loadPde(a);
    PcgResult res = acc.pcg(b);
    EXPECT_TRUE(res.converged);
    EXPECT_FALSE(res.history.empty());
    EXPECT_GT(acc.report().cycles, 0u);
}

} // namespace
} // namespace alr
