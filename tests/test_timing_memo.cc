/**
 * @file
 * The timing memo (Engine, TimingMemo): a run whose entry state repeats
 * replays the recorded walk instead of walking, and must model exactly
 * what the walk would have.  The profiler and the timeline (when it
 * records the modeled plane) bypass the memo and always walk, so the
 * same run sequence with either of them on is the exactness oracle:
 * results, RunTimings, the stat dump after every run and a
 * StatSnapshotter series must all match byte for byte.
 *
 * Plus the memo's premise, checked on the reference engine (which
 * always walks): operand values never change a run's timing.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "alrescha/sim/engine.hh"
#include "alrescha/sim/profile.hh"
#include "common/random.hh"
#include "common/timeline.hh"
#include "reference/reference_engine.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

/** A PDE matrix with the three tables Accelerator::loadPde builds. */
struct Problem
{
    CsrMatrix a;
    LocallyDenseMatrix ld;
    ConfigTable spmv, fwd, bwd;

    explicit Problem(CsrMatrix m)
        : a(std::move(m)),
          ld(LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs)),
          spmv(ConfigTable::convert(KernelType::SpMV, ld)),
          fwd(ConfigTable::convert(KernelType::SymGS, ld, true,
                                   GsSweep::Forward)),
          bwd(ConfigTable::convert(KernelType::SymGS, ld, true,
                                   GsSweep::Backward))
    {
    }
};

DenseVector
seeded(uint64_t seed, Index n)
{
    Rng rng(seed);
    DenseVector v(n);
    for (Value &x : v)
        x = rng.nextDouble(-1.0, 1.0);
    return v;
}

/** What one engine's run sequence leaves behind. */
struct Record
{
    std::vector<DenseVector> results;
    std::vector<RunTiming> timings;
    /** The full stat dump after every run. */
    std::vector<std::string> dumps;
    std::string snapshots;
    uint64_t memoHits = 0;
};

enum class Observer { None, Profiler, Timeline };

/**
 * SpMV, SpMM with k = 1 and 4, and forward, backward and interleaved
 * SymGS sweeps on @p p, then across a reset(), a reprogramming onto
 * @p q and back onto @p p, with @p obs on for the whole sequence.
 */
Record
runSequence(const AccelParams &params, Observer obs, const Problem &p,
            const Problem &q)
{
    profile::reset();
    profile::setEnabled(obs == Observer::Profiler);
    timeline::reset();
    timeline::setEnabled(obs == Observer::Timeline);

    Engine e(params);
    stats::StatSnapshotter snap(e.statGroup(), 5000);
    e.setSnapshotter(&snap);
    Record rec;
    auto note = [&](const RunTiming &t, const DenseVector &result) {
        rec.timings.push_back(t);
        rec.results.push_back(result);
        rec.dumps.push_back(statDump(e));
    };
    auto phase = [&](const Problem &m) {
        const Index n = m.a.rows();
        const DenseVector x = seeded(1, n), b = seeded(2, n);
        DenseVector it(n, 0.0);
        RunTiming t;
        auto sweep = [&](const ConfigTable &table) {
            e.program(&m.ld, &table);
            e.runSymgsSweep(b, it, &t);
            note(t, it);
        };
        // SpMV and SpMM share memo entries: rotating which of SpMV (k =
        // 0), k = 1 and k = 4 runs first after the sweeps makes each
        // replay entries the others recorded.
        const std::vector<size_t> ks = {0, 1, 4};
        for (size_t round = 0; round < 3; ++round) {
            e.program(&m.ld, &m.spmv);
            for (size_t j = 0; j < ks.size(); ++j) {
                const size_t k = ks[(round + j) % ks.size()];
                if (k == 0) {
                    note(t, e.runSpmv(x, &t));
                    continue;
                }
                std::vector<DenseVector> ys =
                    e.runSpmm(std::vector<DenseVector>(k, x), &t);
                note(t, ys.back());
            }
            sweep(m.fwd);
            sweep(m.bwd);
        }
        for (int run = 0; run < 2; ++run)
            sweep(m.fwd);
        for (int run = 0; run < 2; ++run)
            sweep(m.bwd);
    };
    phase(p);
    e.reset();
    phase(p);
    phase(q);
    phase(p);

    profile::setEnabled(false);
    profile::reset();
    timeline::setEnabled(false);
    timeline::reset();
    std::ostringstream os;
    snap.dumpCsv(os);
    rec.snapshots = os.str();
    rec.memoHits = e.timingMemoHits();
    return rec;
}

void
expectSameRecord(const Record &walked, const Record &memo,
                 const std::string &what)
{
    ASSERT_EQ(walked.dumps.size(), memo.dumps.size()) << what;
    for (size_t i = 0; i < walked.dumps.size(); ++i) {
        ASSERT_EQ(walked.results[i], memo.results[i]) << what << " run " << i;
        EXPECT_EQ(walked.timings[i].cycles, memo.timings[i].cycles)
            << what << " run " << i;
        EXPECT_EQ(walked.timings[i].seqCycles, memo.timings[i].seqCycles)
            << what << " run " << i;
        EXPECT_EQ(walked.timings[i].parCycles, memo.timings[i].parCycles)
            << what << " run " << i;
        ASSERT_EQ(walked.dumps[i], memo.dumps[i]) << what << " run " << i;
    }
    EXPECT_EQ(walked.snapshots, memo.snapshots) << what;
}

} // namespace

TEST(TimingMemo, ProfilerAndTimelineRunsWalkAndMatchMemoizedRuns)
{
    const Problem p(gen::stencil2d(14, 14));
    Rng rng(5);
    const Problem q(gen::banded(150, 12, 0.7, rng));
    // abl_cache's sweep: keys of 4 to 1,024 lines.  At the default
    // bandwidth issue bounds every block's stream; at 4 bytes per
    // cycle the memory pipe does, so the stream terms a hit swaps in
    // (SpMM's) reach the cycles too.
    for (double bytesPerCycle : {0.0, 4.0}) {
        for (uint32_t bytes = 256; bytes <= 64 * 1024; bytes *= 2) {
            AccelParams params;
            params.cacheBytes = bytes;
            std::string what = std::to_string(bytes) + " B cache";
            if (bytesPerCycle != 0.0) {
                params.memBandwidthGBs = bytesPerCycle * params.clockGhz;
                what += ", 4 B/cycle";
            }
            Record memo = runSequence(params, Observer::None, p, q);
            Record profiled = runSequence(params, Observer::Profiler, p, q);
            Record traced = runSequence(params, Observer::Timeline, p, q);
            EXPECT_GT(memo.memoHits, 0u) << what;
            EXPECT_EQ(profiled.memoHits, 0u) << what;
            EXPECT_EQ(traced.memoHits, 0u) << what;
            expectSameRecord(profiled, memo, what + ", profiler");
            expectSameRecord(traced, memo, what + ", timeline");
        }
    }
}

TEST(TimingMemo, HitsOnlyWhenTheEntryStateRepeats)
{
    const Problem p(gen::stencil2d(14, 14));
    Engine e;
    const DenseVector x(p.a.rows(), 1.0);
    e.program(&p.ld, &p.spmv);
    e.runSpmv(x);
    // The first run left other lines than a fresh cache holds.
    EXPECT_EQ(e.timingMemoHits(), 0u);
    e.runSpmv(x);
    e.runSpmv(x);
    const uint64_t settled = e.timingMemoHits();
    e.runSpmv(x);
    EXPECT_EQ(e.timingMemoHits(), settled + 1);
    // An SpMM makes its SpMV's accesses, so it replays the SpMV's entry
    // whatever its right-hand-side count, and leaves the same lines.
    e.runSpmm({x, x});
    e.runSpmm({x, x, x, x});
    e.runSpmv(x);
    EXPECT_EQ(e.timingMemoHits(), settled + 4);
    // reset() clears the lines to a fresh engine's, which the first
    // run recorded; the memo outlives the reset.
    e.reset();
    e.runSpmm({x, x, x});
    EXPECT_EQ(e.timingMemoHits(), settled + 5);
    // Dropping the schedules drops their memos.
    e.invalidateSchedules();
    e.reset();
    e.runSpmv(x);
    EXPECT_EQ(e.timingMemoHits(), settled + 5);
}

TEST(TimingMemo, RequestPlaneTracingKeepsTheMemo)
{
    // alr_serve traces only the host and serve planes: the engine's
    // modeled events would be filtered out, so its runs need not walk.
    const Problem p(gen::stencil2d(14, 14));
    const DenseVector x(p.a.rows(), 1.0);
    auto hitsOf = [&] {
        Engine e;
        e.program(&p.ld, &p.spmv);
        for (int run = 0; run < 6; ++run)
            e.runSpmv(x);
        return e.timingMemoHits();
    };
    const uint64_t untraced = hitsOf();
    ASSERT_GT(untraced, 0u);
    timeline::reset();
    timeline::setPidMask((1u << timeline::kPidHost) |
                         (1u << timeline::kPidServe));
    timeline::setEnabled(true);
    const uint64_t requestPlane = hitsOf();
    timeline::setPidMask(~0u);
    const uint64_t modeledPlane = hitsOf();
    timeline::setEnabled(false);
    timeline::reset();
    EXPECT_EQ(requestPlane, untraced);
    EXPECT_EQ(modeledPlane, 0u);
}

// ---------------------------------------------------------------------
// The premise: a run's timing depends only on its entry state, never on
// the operand values.  The reference engine always walks, so two
// engines brought to the same entry state and then run on different
// operands must model the same RunTiming and stats.
// ---------------------------------------------------------------------

namespace {

enum class Kernel { Spmv, Spmm4, Forward, Backward };

struct Outcome
{
    RunTiming timing;
    std::string dump;
};

/** Run @p kernel on a reference engine with operands from @p make
 *  (seed -> vector), after a warm-up of every kernel when @p warm. */
template <typename Make>
Outcome
referenceRun(const Problem &p, Kernel kernel, bool warm, Make make)
{
    Engine e;
    ReferenceEngine ref(e);
    const Index n = p.a.rows();
    auto run = [&](Kernel k, auto operand, RunTiming *t) {
        switch (k) {
          case Kernel::Spmv:
            ref.program(&p.ld, &p.spmv);
            ref.runSpmv(operand(1), t);
            break;
          case Kernel::Spmm4: {
            ref.program(&p.ld, &p.spmv);
            std::vector<DenseVector> xs;
            for (uint64_t j = 0; j < 4; ++j)
                xs.push_back(operand(10 + j));
            ref.runSpmm(xs, t);
            break;
          }
          case Kernel::Forward:
          case Kernel::Backward: {
            ref.program(&p.ld, k == Kernel::Forward ? &p.fwd : &p.bwd);
            DenseVector x = operand(2);
            ref.runSymgsSweep(operand(3), x, t);
            break;
          }
        }
    };
    if (warm) {
        auto ones = [n](uint64_t) { return DenseVector(n, 1.0); };
        for (Kernel k : {Kernel::Forward, Kernel::Spmv, Kernel::Backward,
                         Kernel::Spmm4})
            run(k, ones, nullptr);
    }
    Outcome out;
    run(kernel, make, &out.timing);
    out.dump = statDump(e);
    return out;
}

} // namespace

TEST(TimingMemo, ReferenceTimingIgnoresOperandValues)
{
    Rng rng(8);
    const Problem p(gen::banded(200, 16, 0.6, rng));
    const Index n = p.a.rows();
    auto zeros = [n](uint64_t) { return DenseVector(n, 0.0); };
    auto random = [n](uint64_t seed) { return seeded(seed, n); };
    for (Kernel k : {Kernel::Spmv, Kernel::Spmm4, Kernel::Forward,
                     Kernel::Backward}) {
        for (bool warm : {false, true}) {
            const std::string what = "kernel " + std::to_string(int(k)) +
                                     (warm ? ", warm" : ", fresh");
            Outcome z = referenceRun(p, k, warm, zeros);
            Outcome r = referenceRun(p, k, warm, random);
            EXPECT_GT(z.timing.cycles, 0u) << what;
            EXPECT_EQ(z.timing.cycles, r.timing.cycles) << what;
            EXPECT_EQ(z.timing.seqCycles, r.timing.seqCycles) << what;
            EXPECT_EQ(z.timing.parCycles, r.timing.parCycles) << what;
            EXPECT_EQ(z.dump, r.dump) << what;
        }
    }
}
