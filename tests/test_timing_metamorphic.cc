/**
 * @file
 * Metamorphic relations of the cycle model: changes to the parameters
 * or the operands whose effect on the modeled timing is known without
 * computing it.  Each relation pins one timing rule the engine's walk
 * applies -- the memory-rate stream (§4.5), the switch rewrite hidden
 * under the reduction-tree drain (§4.4), value-independence, SpMM as k
 * SpMVs sharing one stream, and a stream made of whole blocks wherever
 * they sit -- without consulting the reference engine.
 */

#include <gtest/gtest.h>

#include <utility>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/profile.hh"
#include "common/random.hh"
#include "reference/reference_engine.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

DenseVector
seeded(uint64_t seed, Index n)
{
    Rng rng(seed);
    DenseVector v(n);
    for (Value &x : v)
        x = rng.nextDouble(-1.0, 1.0);
    return v;
}

/** What a run sequence leaves behind. */
struct Record
{
    std::vector<DenseVector> results;
    std::vector<RunTiming> timings;
    std::string dump;
};

/**
 * On a PDE-loaded @p acc, @p repeats times: an SpMV, an SpMM with k = 4
 * and a symmetric SymGS sweep (forward then backward), each recording
 * its result and RunTiming; then the stat dump.
 */
Record
runMix(Accelerator &acc, int repeats = 2)
{
    Engine &e = acc.engine();
    const Index n = acc.matrix().rows();
    const DenseVector x = seeded(1, n), b = seeded(2, n);
    std::vector<DenseVector> xs;
    for (uint64_t j = 0; j < 4; ++j)
        xs.push_back(seeded(10 + j, n));
    Record rec;
    DenseVector xg(n, 0.0);
    for (int rep = 0; rep < repeats; ++rep) {
        RunTiming t;
        e.program(&acc.matrix(), &acc.table(KernelType::SpMV));
        rec.results.push_back(e.runSpmv(x, &t));
        rec.timings.push_back(t);
        for (DenseVector &y : e.runSpmm(xs, &t))
            rec.results.push_back(std::move(y));
        rec.timings.push_back(t);
        for (GsSweep dir : {GsSweep::Forward, GsSweep::Backward}) {
            e.program(&acc.matrix(), &acc.table(KernelType::SymGS, dir));
            e.runSymgsSweep(b, xg, &t);
            rec.results.push_back(xg);
            rec.timings.push_back(t);
        }
    }
    rec.dump = statDump(e);
    return rec;
}

void
expectSameTimings(const std::vector<RunTiming> &a,
                  const std::vector<RunTiming> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].seqCycles, b[i].seqCycles);
        EXPECT_EQ(a[i].parCycles, b[i].parCycles);
    }
}

/** Scale every stored value of @p a by @p factor. */
CsrMatrix
scaled(CsrMatrix a, Value factor)
{
    for (Value &v : a.vals())
        v *= factor;
    return a;
}

} // namespace

TEST(TimingMetamorphic, MoreBandwidthNeverAddsCycles)
{
    // SpMV, SpMM with k = 4 and a symmetric sweep (summed over both
    // directions), each as the mix's first run of its kind.
    const CsrMatrix a = gen::stencil3d(12, 12, 12);
    std::vector<std::vector<uint64_t>> cycles;
    for (double gbs : {72.0, 144.0, 288.0, 576.0, 1152.0}) {
        SCOPED_TRACE("memBandwidthGBs " + std::to_string(gbs));
        AccelParams p;
        p.memBandwidthGBs = gbs;
        Accelerator acc(p);
        acc.loadPde(a);
        const std::vector<RunTiming> t = runMix(acc, 1).timings;
        ASSERT_EQ(t.size(), 4u);
        cycles.push_back(
            {t[0].cycles, t[1].cycles, t[2].cycles + t[3].cycles});
    }
    for (size_t kernel = 0; kernel < 3; ++kernel) {
        SCOPED_TRACE("kernel " + std::to_string(kernel));
        for (size_t i = 1; i < cycles.size(); ++i)
            EXPECT_LE(cycles[i][kernel], cycles[i - 1][kernel]);
        // Not vacuous: the slowest memory costs cycles on every kernel.
        EXPECT_LT(cycles.back()[kernel], cycles.front()[kernel]);
    }
}

TEST(TimingMetamorphic, SwitchWithinTheDrainIsNeverExposed)
{
    // With the switch rewrite no longer than the tree drain, no path
    // switch stalls: only the very first configuration -- programming,
    // with no drain to hide under -- is exposed.
    const CsrMatrix a = gen::stencil3d(8, 8, 8);
    const int drain = AccelParams{}.drainCycles();
    ASSERT_GT(drain, 1);
    for (int config : {0, 1, drain / 2, drain}) {
        SCOPED_TRACE("configCycles " + std::to_string(config));
        AccelParams p;
        p.configCycles = config;
        for (bool profiled : {false, true}) {
            SCOPED_TRACE(profiled ? "profiled" : "memoized");
            profile::reset();
            profile::setEnabled(profiled);
            Accelerator acc(p);
            acc.loadPde(a);
            runMix(acc);
            profile::setEnabled(false);
            const stats::StatGroup &g = acc.engine().statGroup();
            EXPECT_GT(g.lookup("rcu.reconfigurations"), 1.0);
            EXPECT_EQ(g.lookup("rcu.reconfig_stall_cycles"), 0.0);
            EXPECT_EQ(g.lookup("rcu.reconfig_hidden_frac"), 1.0);
            if (!profiled)
                continue;
            uint64_t exposed = 0, hidden = 0;
            for (const profile::BucketRow &r : profile::snapshot().buckets) {
                if (r.cause == profile::Cause::ReconfigExposed)
                    exposed += r.cycles;
                if (r.cause == profile::Cause::ReconfigHidden)
                    hidden += r.cycles;
            }
            EXPECT_EQ(exposed, uint64_t(config));
            EXPECT_GT(hidden, 0u);
        }
    }

    // Past the drain, every switch stalls for the excess.
    AccelParams p;
    p.configCycles = drain + 5;
    Accelerator acc(p);
    acc.loadPde(a);
    runMix(acc);
    const stats::StatGroup &g = acc.engine().statGroup();
    EXPECT_EQ(g.lookup("rcu.reconfig_stall_cycles"),
              5.0 * (g.lookup("rcu.reconfigurations") - 1.0));
    EXPECT_LT(g.lookup("rcu.reconfig_hidden_frac"), 1.0);
}

TEST(TimingMetamorphic, ScalingTheValuesKeepsTheTiming)
{
    // Doubling every value keeps every zero a zero, so the occupied
    // rows, the cache accesses and every stat stay; only the results
    // change.
    for (const CsrMatrix &a :
         {gen::stencil3d(8, 8, 8), [] {
              Rng rng(17);
              return gen::randomSpd(150, 4, rng);
          }()}) {
        Accelerator one, two;
        one.loadPde(a);
        two.loadPde(scaled(a, 2.0));
        const Record r1 = runMix(one), r2 = runMix(two);
        expectSameTimings(r1.timings, r2.timings);
        EXPECT_EQ(r1.dump, r2.dump);
        EXPECT_NE(r1.results, r2.results);
    }
}

TEST(TimingMetamorphic, SpmmOfOneRhsIsSpmv)
{
    // SpMM with k = 1 streams each block's SpMV payload once and
    // issues its rows once, as SpMV does, on either layout with or
    // without row skipping.
    Rng rng(23);
    const CsrMatrix a = gen::randomSpd(150, 4, rng);
    struct Case
    {
        bool pde;
        bool skip;
    };
    for (const Case c : {Case{false, true}, Case{false, false},
                         Case{true, true}, Case{true, false}}) {
        SCOPED_TRACE(std::string(c.pde ? "SymGs" : "Plain") +
                     (c.skip ? " skipping" : " not skipping"));
        AccelParams p;
        p.skipEmptyBlockRows = c.skip;
        Accelerator spmv(p), spmm(p);
        for (Accelerator *acc : {&spmv, &spmm}) {
            if (c.pde)
                acc->loadPde(a);
            else
                acc->loadSpmvOnly(a);
            acc->engine().program(&acc->matrix(),
                                   &acc->table(KernelType::SpMV));
        }
        for (uint64_t run = 0; run < 3; ++run) {
            SCOPED_TRACE("run " + std::to_string(run));
            const DenseVector x = seeded(run, a.cols());
            RunTiming tv, tm;
            const DenseVector y = spmv.engine().runSpmv(x, &tv);
            const std::vector<DenseVector> ys =
                spmm.engine().runSpmm({x}, &tm);
            ASSERT_EQ(ys.size(), 1u);
            EXPECT_EQ(ys[0], y);
            expectSameTimings({tv}, {tm});
        }
        EXPECT_EQ(statDump(spmv.engine()), statDump(spmm.engine()));
    }
}

TEST(TimingMetamorphic, BlockPermutationKeepsTheStream)
{
    // Renumbering whole blocks -- block row and block column i both
    // become pi(i), each block's contents untouched -- moves the stored
    // blocks without changing one, so the block count, the payload
    // bytes and an SpMV's streamed bytes stay, on either layout.
    Rng rng(31);
    const CsrMatrix a = gen::randomSpd(160, 4, rng);
    const Index omega = AccelParams{}.omega;
    ASSERT_EQ(a.rows() % omega, 0u);
    const std::vector<uint32_t> pi = rng.permutation(a.rows() / omega);
    std::vector<Index> perm(a.rows());
    for (Index i = 0; i < a.rows(); ++i)
        perm[i] = pi[i / omega] * omega + i % omega;
    const CsrMatrix b = a.permuted(perm);
    ASSERT_NE(b.colIdx(), a.colIdx()) << "the permutation moved nothing";
    for (bool pde : {false, true}) {
        SCOPED_TRACE(pde ? "SymGs layout" : "Plain layout");
        Accelerator one, two;
        for (auto [acc, m] : {std::pair{&one, &a}, {&two, &b}}) {
            if (pde)
                acc->loadPde(*m);
            else
                acc->loadSpmvOnly(*m);
            acc->spmv(seeded(5, m->cols()));
        }
        EXPECT_EQ(one.matrix().blocks().size(), two.matrix().blocks().size());
        EXPECT_EQ(one.matrix().streamBytes(), two.matrix().streamBytes());
        const auto streamed = [](const Accelerator &acc) {
            return acc.engine().statGroup().lookup("mem.bytes_streamed");
        };
        EXPECT_GT(streamed(one), 0.0);
        EXPECT_EQ(streamed(one), streamed(two));
    }
}
