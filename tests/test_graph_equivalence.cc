/**
 * @file
 * Graph-round equivalence: the engine's BFS, SSSP, connected-components
 * and PageRank rounds, which replay the compiled schedule, against the
 * graph oracle -- the reference engine's table walks (tests/reference)
 * -- bit for bit: every round's result and RunTiming, the stat dump,
 * and the profile buckets.  The cases cross frontier skipping, empty
 * block-row skipping, omega and the memory bandwidth, on an R-MAT graph
 * and a road grid whose vertex count is not a multiple of omega.
 * Rounds without a frontier repeat their accesses, so they replay the
 * timing memo; frontier rounds never touch it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/profile.hh"
#include "common/random.hh"
#include "kernels/graph.hh"
#include "reference/reference_engine.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

enum class Kernel { Bfs, Sssp, Cc, Pr };

const char *
toString(Kernel k)
{
    switch (k) {
      case Kernel::Bfs:  return "bfs";
      case Kernel::Sssp: return "sssp";
      case Kernel::Cc:   return "cc";
      case Kernel::Pr:   return "pr";
    }
    return "?";
}

struct Case
{
    Kernel kernel;
    bool frontier;
    bool skipEmpty;
    Index omega;
    /** Memory bandwidth in bytes per cycle; 0 keeps the default.  At 4
     *  the memory pipe bounds every block's stream. */
    unsigned bytesPerCycle;
};

AccelParams
caseParams(const Case &c)
{
    AccelParams p;
    p.omega = c.omega;
    p.frontierSkipping = c.frontier;
    p.skipEmptyBlockRows = c.skipEmpty;
    if (c.bytesPerCycle != 0)
        p.memBandwidthGBs = c.bytesPerCycle * p.clockGhz;
    return p;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    const Case &c = info.param;
    std::string name = std::string(toString(c.kernel)) +
                       (c.frontier ? "_frontier" : "_full") +
                       (c.skipEmpty ? "_skip" : "_noskip") + "_w" +
                       std::to_string(c.omega);
    if (c.bytesPerCycle != 0)
        name += "_bw" + std::to_string(c.bytesPerCycle);
    return name;
}

/** An R-MAT graph (128 vertices) and a 13 x 17 road grid (221
 *  vertices, a multiple of neither 4 nor 8). */
std::vector<CsrMatrix>
graphs()
{
    Rng rng(23);
    std::vector<CsrMatrix> g;
    g.push_back(gen::rmat(7, 6, rng));
    g.push_back(gen::roadGrid(13, 17, 0.02, rng));
    return g;
}

/** A loaded graph: its transposed adjacency, encoded, and the table of
 *  one kernel (CC runs on the BFS table). */
struct Program
{
    std::vector<Index> outdeg;
    LocallyDenseMatrix ld;
    ConfigTable table;

    Program(const CsrMatrix &adj, Kernel k, Index omega)
        : outdeg(outDegrees(adj)),
          ld(LocallyDenseMatrix::encode(adj.transposed(), omega,
                                        LdLayout::Plain)),
          table(ConfigTable::convert(k == Kernel::Pr     ? KernelType::PageRank
                                     : k == Kernel::Sssp ? KernelType::SSSP
                                                         : KernelType::BFS,
                                     ld))
    {
    }
};

bool
sameBits(const DenseVector &a, const DenseVector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0;
}

void
expectTimingEq(const RunTiming &a, const RunTiming &b, const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.seqCycles, b.seqCycles) << what;
    EXPECT_EQ(a.parCycles, b.parCycles) << what;
}

/** One round of a kernel: the values in, the frontier mask (nullptr
 *  when the round has none), the timing out. */
using Round = std::function<DenseVector(
    const DenseVector &, const std::vector<uint8_t> *, RunTiming *)>;

Round
engineRound(Engine &e, Kernel k, const std::vector<Index> &outdeg)
{
    return [&e, k, &outdeg](const DenseVector &x,
                            const std::vector<uint8_t> *active,
                            RunTiming *t) {
        if (k == Kernel::Pr)
            return e.runPrRound(x, outdeg, t);
        if (k == Kernel::Cc)
            return active ? e.runLabelRound(x, *active, t)
                          : e.runLabelRound(x, t);
        return active ? e.runRelaxRound(x, *active, t)
                      : e.runRelaxRound(x, t);
    };
}

Round
oracleRound(ReferenceEngine &ref, Kernel k, const std::vector<Index> &outdeg)
{
    return [&ref, k, &outdeg](const DenseVector &x,
                              const std::vector<uint8_t> *active,
                              RunTiming *t) {
        if (k == Kernel::Pr)
            return ref.runPrRound(x, outdeg, t);
        return ref.runRelaxRound(x, k == Kernel::Cc, active, t);
    };
}

/**
 * Drive @p round as the Accelerator does: a relaxation from vertex 0
 * (labels from every vertex) until no value changes, with a frontier
 * of the chunks that changed last round when @p frontier is set;
 * PageRank for a fixed number of damped rounds.  Returns the rounds.
 */
int
drive(Kernel k, bool frontier, Index n, Index omega, const Round &round)
{
    const Index chunks = (n + omega - 1) / omega;
    constexpr int kPrRounds = 12;
    if (k == Kernel::Pr) {
        DenseVector rank(n, 1.0 / double(n));
        for (int it = 0; it < kPrRounds; ++it) {
            DenseVector sums = round(rank, nullptr, nullptr);
            for (Index v = 0; v < n; ++v)
                rank[v] = 0.15 / double(n) + 0.85 * sums[v];
        }
        return kPrRounds;
    }
    DenseVector x(n, kInf);
    std::vector<uint8_t> active(chunks, 0);
    if (k == Kernel::Cc) {
        for (Index v = 0; v < n; ++v)
            x[v] = Value(v);
        std::fill(active.begin(), active.end(), 1);
    } else {
        x[0] = 0.0;
        active[0] = 1;
    }
    for (int rounds = 1;; ++rounds) {
        DenseVector next = round(x, frontier ? &active : nullptr, nullptr);
        std::vector<uint8_t> changed(chunks, 0);
        bool any = false;
        for (Index v = 0; v < n; ++v) {
            if (next[v] != x[v]) {
                changed[v / omega] = 1;
                any = true;
            }
        }
        x = std::move(next);
        if (!any)
            return rounds;
        active = std::move(changed);
    }
}

/** Every kernel x frontier on/off x row skipping on/off x omega 4, 8
 *  x default and 4 B/cycle bandwidth. */
std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (Kernel k : {Kernel::Bfs, Kernel::Sssp, Kernel::Cc, Kernel::Pr})
        for (bool frontier : {false, true})
            for (bool skip : {false, true})
                for (Index omega : {Index(4), Index(8)})
                    for (unsigned bw : {0u, 4u})
                        cases.push_back({k, frontier, skip, omega, bw});
    return cases;
}

class GraphEquivalence : public ::testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(GraphEquivalence, RoundsBitIdentical)
{
    const Case c = GetParam();
    for (const CsrMatrix &adj : graphs()) {
        const Program prog(adj, c.kernel, c.omega);
        Engine eng(caseParams(c)), refEngine(caseParams(c));
        ReferenceEngine ref(refEngine);
        eng.program(&prog.ld, &prog.table);
        ref.program(&prog.ld, &prog.table);
        const Round mine = engineRound(eng, c.kernel, prog.outdeg);
        const Round oracle = oracleRound(ref, c.kernel, prog.outdeg);

        int round = 0;
        const std::string what = std::to_string(adj.rows()) + " vertices";
        drive(c.kernel, c.frontier, adj.rows(), c.omega,
              [&](const DenseVector &x, const std::vector<uint8_t> *active,
                  RunTiming *) {
                  RunTiming te, tr;
                  DenseVector ye = mine(x, active, &te);
                  DenseVector yr = oracle(x, active, &tr);
                  const std::string at =
                      what + ", round " + std::to_string(++round);
                  EXPECT_TRUE(sameBits(ye, yr)) << at;
                  expectTimingEq(te, tr, at);
                  return ye;
              });
        EXPECT_EQ(statDump(eng), statDump(refEngine)) << what;
        EXPECT_EQ(eng.rcu().configured(), refEngine.rcu().configured())
            << what;
        // A round without a frontier repeats its accesses: once its
        // entry state repeats, it replays the memo.  A frontier round
        // neither reads nor writes it.
        if (c.frontier && c.kernel != Kernel::Pr) {
            EXPECT_EQ(eng.timingMemoHits(), 0u) << what;
        } else if (round > 3) {
            EXPECT_GT(eng.timingMemoHits(), 0u) << what;
        }
    }
}

TEST_P(GraphEquivalence, ProfileBucketsMatch)
{
    const Case c = GetParam();
    const CsrMatrix adj = graphs()[1];
    const Program prog(adj, c.kernel, c.omega);

    // The recorder is process-wide, so each engine's run is recorded
    // on its own.
    auto profiled = [&](auto &&run) {
        profile::reset();
        profile::setEnabled(true);
        run();
        profile::setEnabled(false);
        profile::Snapshot snap = profile::snapshot();
        profile::reset();
        return snap;
    };
    Engine eng(caseParams(c)), refEngine(caseParams(c));
    ReferenceEngine ref(refEngine);
    eng.program(&prog.ld, &prog.table);
    ref.program(&prog.ld, &prog.table);
    const profile::Snapshot mine = profiled([&] {
        drive(c.kernel, c.frontier, adj.rows(), c.omega,
              engineRound(eng, c.kernel, prog.outdeg));
    });
    const profile::Snapshot oracle = profiled([&] {
        drive(c.kernel, c.frontier, adj.rows(), c.omega,
              oracleRound(ref, c.kernel, prog.outdeg));
    });

    EXPECT_EQ(mine.runs, oracle.runs);
    EXPECT_EQ(mine.attributedCycles, oracle.attributedCycles);
    EXPECT_EQ(mine.attributedBytes, oracle.attributedBytes);
    EXPECT_EQ(mine.attributedCycles, eng.totalCycles());
    ASSERT_EQ(mine.buckets.size(), oracle.buckets.size());
    for (size_t i = 0; i < mine.buckets.size(); ++i) {
        const profile::BucketRow &a = mine.buckets[i];
        const profile::BucketRow &b = oracle.buckets[i];
        const std::string at = std::string(toString(a.dp)) + ", row " +
                               std::to_string(a.blockRow) + ", " +
                               profile::toString(a.cause);
        EXPECT_EQ(a.dp, b.dp) << "bucket " << i;
        EXPECT_EQ(a.blockRow, b.blockRow) << "bucket " << i;
        EXPECT_EQ(a.cause, b.cause) << "bucket " << i;
        EXPECT_EQ(a.cycles, b.cycles) << at;
        EXPECT_EQ(a.bytes, b.bytes) << at;
    }
    EXPECT_EQ(statDump(eng), statDump(refEngine));
}

INSTANTIATE_TEST_SUITE_P(Graphs, GraphEquivalence,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(GraphEquivalence, EmptyFrontierKeepsTheSwitch)
{
    // A frontier with no active chunk skips every path: the round
    // streams nothing, and the RCU stays on the data path the previous
    // run left (here D-PR), so the next full round pays the switch.
    const CsrMatrix adj = graphs()[0];
    const Program pr(adj, Kernel::Pr, 8), bfs(adj, Kernel::Bfs, 8);
    Engine eng, refEngine;
    ReferenceEngine ref(refEngine);
    const DenseVector rank(adj.rows(), 1.0 / double(adj.rows()));
    DenseVector dist(adj.rows(), kInf);
    dist[0] = 0.0;
    const std::vector<uint8_t> none((adj.rows() + 7) / 8, 0);

    RunTiming te, tr;
    eng.program(&pr.ld, &pr.table);
    ref.program(&pr.ld, &pr.table);
    EXPECT_TRUE(sameBits(eng.runPrRound(rank, pr.outdeg, &te),
                         ref.runPrRound(rank, pr.outdeg, &tr)));
    expectTimingEq(te, tr, "pagerank");

    eng.program(&bfs.ld, &bfs.table);
    ref.program(&bfs.ld, &bfs.table);
    const double streamed = eng.memory().bytesStreamed();
    DenseVector ye = eng.runRelaxRound(dist, none, &te);
    EXPECT_TRUE(sameBits(ye, ref.runRelaxRound(dist, false, &none, &tr)));
    EXPECT_TRUE(sameBits(ye, dist));
    expectTimingEq(te, tr, "empty frontier");
    EXPECT_EQ(te.parCycles, 0u);
    EXPECT_EQ(eng.memory().bytesStreamed(), streamed);
    EXPECT_EQ(eng.rcu().configured(), DataPathType::DPr);
    EXPECT_EQ(refEngine.rcu().configured(), DataPathType::DPr);

    EXPECT_TRUE(sameBits(eng.runRelaxRound(dist, &te),
                         ref.runRelaxRound(dist, false, nullptr, &tr)));
    expectTimingEq(te, tr, "full round after the empty frontier");
    EXPECT_EQ(eng.rcu().configured(), DataPathType::DBfs);
    EXPECT_EQ(statDump(eng), statDump(refEngine));
}

TEST(GraphEquivalence, PagerankReplaysTheMemo)
{
    // Every PageRank round makes the same accesses, so after the first
    // rounds settle the cache, later rounds replay their walk -- with
    // the same results, timing and stats as the oracle, which walks.
    Rng rng(12);
    const CsrMatrix g = gen::rmat(12, 8, rng);
    Accelerator acc, oracle;
    acc.loadGraph(g);
    oracle.loadGraph(g);
    PageRankOptions opts;
    opts.maxIterations = 6;
    opts.tolerance = 0.0;
    const GraphResult r = acc.pagerank(opts);
    EXPECT_GT(acc.engine().timingMemoHits(), 0u);

    ReferenceEngine ref(oracle.engine());
    ref.program(&oracle.matrix(), &oracle.table(KernelType::PageRank));
    const std::vector<Index> outdeg = outDegrees(g);
    DenseVector rank(g.rows(), 1.0 / double(g.rows()));
    for (int it = 0; it < opts.maxIterations; ++it) {
        const DenseVector sums = ref.runPrRound(rank, outdeg);
        Value dangling = 0.0;
        for (Index v = 0; v < g.rows(); ++v)
            if (outdeg[v] == 0)
                dangling += rank[v];
        const Value base = (1.0 - opts.damping) / Value(g.rows()) +
                           opts.damping * dangling / Value(g.rows());
        for (Index v = 0; v < g.rows(); ++v)
            rank[v] = base + opts.damping * sums[v];
    }
    EXPECT_TRUE(sameBits(r.values, rank));
    EXPECT_EQ(statDump(acc.engine()), statDump(oracle.engine()));
}
