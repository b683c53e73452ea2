/**
 * @file
 * Schedule-compiler equivalence properties: for every schedulable
 * kernel the engine's compiled ExecSchedule must reproduce the
 * reference engine (the table interpreter, tests/reference) bit for
 * bit -- results, cycle counts, the entire serialized stat dump, and
 * the modeled timeline -- across omegas, matrices, repeated runs
 * (cross-run cache and switch state), and functional-pass thread
 * counts.  Plus unit tests for the reference engine's link stack, the
 * payload-position LUT and the schedule cache (reuse, invalidation,
 * eviction).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/replay.hh"
#include "alrescha/sim/schedule.hh"
#include "alrescha/sim/schedule_io.hh"
#include "common/random.hh"
#include "common/timeline.hh"
#include "datasets/suites.hh"
#include "reference/link_buffer.hh"
#include "reference/reference_engine.hh"
#include "sparse/coo.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

/** @p bytes_per_cycle, when non-zero, sets the memory bandwidth: at 4
 *  bytes per cycle the memory pipe, not issue, bounds every block's
 *  stream, so the walk's stream and payload terms reach the cycles. */
AccelParams
makeParams(Index omega, int threads, bool simd = true,
           unsigned bytes_per_cycle = 0)
{
    AccelParams p;
    p.omega = omega;
    p.hostThreads = threads;
    p.simdMode = simd ? SimdMode::Auto : SimdMode::Scalar;
    if (bytes_per_cycle != 0)
        p.memBandwidthGBs = bytes_per_cycle * p.clockGhz;
    return p;
}

void
expectTimingEq(const RunTiming &a, const RunTiming &b, const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.seqCycles, b.seqCycles) << what;
    EXPECT_EQ(a.parCycles, b.parCycles) << what;
}

/** One parameter instance.  threads and bytesPerCycle share one
 *  32-bit word, so an instance at the default bandwidth (0) prints
 *  the same parameter bytes, and keeps the same test name, as before
 *  bytesPerCycle existed. */
struct Case
{
    Index omega;
    int16_t threads;
    uint16_t bytesPerCycle;
    uint64_t seed;
};

AccelParams
caseParams(const Case &c, int threads, bool simd = true)
{
    return makeParams(c.omega, threads, simd, c.bytesPerCycle);
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    const Case &c = info.param;
    std::string name =
        "w" + std::to_string(c.omega) + "_t" + std::to_string(c.threads);
    if (c.bytesPerCycle != 0)
        name += "_bw" + std::to_string(c.bytesPerCycle);
    return name;
}

class ScheduleEquivalence : public ::testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(ScheduleEquivalence, SpmvBitIdentical)
{
    const Case c = GetParam();
    Rng rng(c.seed);
    CsrMatrix a = gen::randomSpd(97, 6, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    Engine refEngine(caseParams(c, 1));
    ReferenceEngine ref(refEngine);
    Engine sch(caseParams(c, c.threads));
    ref.program(&ld, &table);
    sch.program(&ld, &table);

    DenseVector x(a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 13) - 6.0;

    // Repeated runs carry cache-line and switch state across runs.
    for (int run = 0; run < 3; ++run) {
        RunTiming tr, ts;
        DenseVector yr = ref.runSpmv(x, &tr);
        DenseVector ys = sch.runSpmv(x, &ts);
        ASSERT_EQ(yr, ys) << "run " << run;
        expectTimingEq(tr, ts, "spmv timing");
    }
    EXPECT_EQ(statDump(refEngine), statDump(sch));
}

TEST_P(ScheduleEquivalence, SpmmBitIdentical)
{
    const Case c = GetParam();
    Rng rng(c.seed + 100);
    CsrMatrix a = gen::blockStructured(96, c.omega, 3, 0.5, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    Engine refEngine(caseParams(c, 1));
    ReferenceEngine ref(refEngine);
    Engine sch(caseParams(c, c.threads));
    ref.program(&ld, &table);
    sch.program(&ld, &table);

    std::vector<DenseVector> xs(3, DenseVector(a.cols()));
    for (size_t j = 0; j < xs.size(); ++j)
        for (size_t i = 0; i < xs[j].size(); ++i)
            xs[j][i] = Value((i * (j + 1)) % 17) - 8.0;

    for (int run = 0; run < 3; ++run) {
        RunTiming tr, ts;
        auto yr = ref.runSpmm(xs, &tr);
        auto ys = sch.runSpmm(xs, &ts);
        ASSERT_EQ(yr, ys) << "run " << run;
        expectTimingEq(tr, ts, "spmm timing");
    }
    EXPECT_EQ(statDump(refEngine), statDump(sch));
}

TEST_P(ScheduleEquivalence, SymgsBitIdentical)
{
    const Case c = GetParam();
    Rng rng(c.seed + 200);
    CsrMatrix a = gen::banded(101, 5, 0.7, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::SymGs);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);
    ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Backward);

    Engine refEngine(caseParams(c, 1));
    ReferenceEngine ref(refEngine);
    Engine sch(caseParams(c, c.threads));

    DenseVector b(a.rows(), 1.0);
    DenseVector xr(a.rows(), 0.0), xs(a.rows(), 0.0);
    // Alternate directions like a symmetric smoother; x evolves, so
    // every sweep checks both the recurrence and the stream timing.
    for (int run = 0; run < 4; ++run) {
        const ConfigTable &t = run % 2 ? bwd : fwd;
        ref.program(&ld, &t);
        sch.program(&ld, &t);
        RunTiming tr, ts;
        ref.runSymgsSweep(b, xr, &tr);
        sch.runSymgsSweep(b, xs, &ts);
        ASSERT_EQ(xr, xs) << "sweep " << run;
        expectTimingEq(tr, ts, "symgs timing");
    }
    EXPECT_EQ(statDump(refEngine), statDump(sch));
}

TEST_P(ScheduleEquivalence, MixedKernelsShareState)
{
    // Interleave SpMV-layout and SymGS runs through one engine pair:
    // the schedule path must leave cache, link-stack, and switch state
    // exactly where the reference engine does.
    const Case c = GetParam();
    Rng rng(c.seed + 300);
    CsrMatrix a = gen::stencil2d(9, 9);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::SymGs);
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, ld);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);

    Engine refEngine(caseParams(c, 1));
    ReferenceEngine ref(refEngine);
    Engine sch(caseParams(c, c.threads));

    DenseVector b(a.rows(), 0.5);
    DenseVector xr(a.rows(), 0.0), xs(a.rows(), 0.0);
    for (int run = 0; run < 3; ++run) {
        ref.program(&ld, &spmv);
        sch.program(&ld, &spmv);
        RunTiming tr, ts;
        DenseVector yr = ref.runSpmv(b, &tr);
        DenseVector ys = sch.runSpmv(b, &ts);
        ASSERT_EQ(yr, ys);
        expectTimingEq(tr, ts, "mixed spmv timing");

        ref.program(&ld, &fwd);
        sch.program(&ld, &fwd);
        ref.runSymgsSweep(b, xr, &tr);
        sch.runSymgsSweep(b, xs, &ts);
        ASSERT_EQ(xr, xs);
        expectTimingEq(tr, ts, "mixed symgs timing");
    }
    EXPECT_EQ(statDump(refEngine), statDump(sch));
}

INSTANTIATE_TEST_SUITE_P(
    OmegaThreads, ScheduleEquivalence,
    ::testing::Values(Case{4, 1, 0, 11}, Case{4, 2, 0, 12},
                      Case{4, 8, 0, 13}, Case{8, 1, 0, 14},
                      Case{8, 2, 0, 15}, Case{8, 8, 0, 16},
                      Case{4, 2, 4, 17}, Case{8, 2, 4, 18}),
    caseName);

TEST(ScheduleEquivalence, PcgFullSolveBitIdentical)
{
    Rng rng(42);
    CsrMatrix a = gen::stencil2d(12, 12);

    Accelerator ref(makeParams(8, 1)), sch(makeParams(8, 1));
    ref.loadPde(a);
    sch.loadPde(a);

    DenseVector b(a.rows(), 1.0);
    PcgOptions opts;
    opts.maxIterations = 25;
    PcgResult r = referencePcg(ref, b, opts);
    PcgResult s = sch.pcg(b, opts);

    EXPECT_EQ(r.x, s.x);
    EXPECT_EQ(r.iterations, s.iterations);
    EXPECT_EQ(r.relResidual, s.relResidual);
    EXPECT_EQ(r.history, s.history);
    EXPECT_EQ(ref.report().cycles, sch.report().cycles);
    EXPECT_EQ(statDump(ref.engine()), statDump(sch.engine()));
}

TEST(ScheduleEquivalence, SymgsSignedZerosBitIdentical)
{
    // Negative diagonals and zero right-hand-side rows make the sweeps
    // produce -0.0: rows 0-15 form an island with b = 0, so each sweep
    // sets them to (0 - 0) / d with d < 0, and those signed zeros feed
    // the products of later rows.  Every iterate is compared bit for
    // bit: == would let -0.0 stand for +0.0.  (The row store holds the
    // diagonal, and a chain masks that lane to +0.0.  A lane of -0.0
    // from v * 0.0 instead could not show here: the chain adds its dot
    // to a link-stack sum that starts at +0.0.)
    const Index n = 83;
    CooMatrix coo(n, n);
    for (Index r = 0; r < n; ++r) {
        coo.add(r, r, -(4.0 + r % 3));
        const Index lo = r < 16 ? 0 : 16;
        const Index hi = r < 16 ? 16 : n;
        for (Index c = r > lo + 2 ? r - 3 : lo; c < std::min(r + 4, hi); ++c)
            if (c != r && (r + c) % 3 != 0)
                coo.add(r, c, -0.5 - 0.125 * ((r * c) % 4));
    }
    const CsrMatrix a = CsrMatrix::fromCoo(coo);
    DenseVector b(n);
    for (Index r = 0; r < n; ++r)
        b[r] = r < 16 || r % 5 == 0 ? 0.0 : Value(r % 7) - 3.0;

    auto negativeZeros = [](const DenseVector &x) {
        return std::count_if(x.begin(), x.end(), [](Value v) {
            return v == 0.0 && std::signbit(v);
        });
    };
    for (Index omega : {Index(4), Index(8)}) {
        SCOPED_TRACE("omega " + std::to_string(omega));
        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::SymGs);
        ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                               GsSweep::Forward);
        ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                               GsSweep::Backward);
        Engine refEngine(makeParams(omega, 1));
        ReferenceEngine ref(refEngine);
        Engine sch(makeParams(omega, 1));
        DenseVector xr(n, 0.0), xs(n, 0.0);
        for (int run = 0; run < 4; ++run) {
            const ConfigTable &t = run % 2 ? bwd : fwd;
            ref.program(&ld, &t);
            sch.program(&ld, &t);
            RunTiming tr, ts;
            ref.runSymgsSweep(b, xr, &tr);
            sch.runSymgsSweep(b, xs, &ts);
            EXPECT_GE(negativeZeros(xr), 16) << "sweep " << run;
            ASSERT_EQ(std::memcmp(xr.data(), xs.data(), n * sizeof(Value)),
                      0)
                << "sweep " << run;
            expectTimingEq(tr, ts, "symgs timing");
        }
        EXPECT_EQ(statDump(refEngine), statDump(sch));
    }
}

TEST(ScheduleEquivalence, UnskippedBlockRowsBitIdentical)
{
    // With empty block rows streamed too, every path streams its whole
    // block payload: omega^2, or omega * (omega - 1) for the diagonal
    // blocks of the SymGs layout, which SpMV, SpMM and the chains read.
    // At 4 bytes per cycle the memory pipe, not issue, bounds each
    // block's stream, so a wrong payload size shows in the cycles.
    for (Index omega : {4u, 8u}) {
        AccelParams p = makeParams(omega, 2, true, 4);
        p.skipEmptyBlockRows = false;
        Rng rng(omega);
        CsrMatrix a = gen::banded(101, 5, 0.7, rng);
        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::SymGs);
        ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, ld);
        ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                               GsSweep::Forward);
        ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                               GsSweep::Backward);

        Engine refEngine(p);
        ReferenceEngine ref(refEngine);
        Engine sch(p);
        DenseVector b(a.rows(), 1.0);
        DenseVector xr(a.rows(), 0.0), xs(a.rows(), 0.0);
        const std::vector<DenseVector> rhs(3, b);
        for (int run = 0; run < 2; ++run) {
            ref.program(&ld, &spmv);
            sch.program(&ld, &spmv);
            RunTiming tr, ts;
            ASSERT_EQ(ref.runSpmv(b, &tr), sch.runSpmv(b, &ts));
            expectTimingEq(tr, ts, "unskipped spmv timing");
            ASSERT_EQ(ref.runSpmm(rhs, &tr), sch.runSpmm(rhs, &ts));
            expectTimingEq(tr, ts, "unskipped spmm timing");
            for (const ConfigTable *t : {&fwd, &bwd}) {
                ref.program(&ld, t);
                sch.program(&ld, t);
                ref.runSymgsSweep(b, xr, &tr);
                sch.runSymgsSweep(b, xs, &ts);
                ASSERT_EQ(xr, xs);
                expectTimingEq(tr, ts, "unskipped symgs timing");
            }
        }
        EXPECT_EQ(statDump(refEngine), statDump(sch)) << "omega " << omega;
    }
}

// ---------------------------------------------------------------------
// Timeline equivalence: the reference engine and the scheduled engine
// emit the same modeled-plane (pid 1) events, in the same order --
// spans, reconfigurations, fills, chains, and counters.
// ---------------------------------------------------------------------

namespace {

/** The modeled-plane events @p run records. */
std::vector<timeline::Event>
modeledEvents(const std::function<void()> &run)
{
    timeline::reset();
    timeline::setEnabled(true);
    run();
    timeline::setEnabled(false);
    EXPECT_EQ(timeline::dropped(), 0u);
    std::vector<timeline::Event> out;
    for (const timeline::Event &ev : timeline::events())
        if (ev.pid == timeline::kPidModeled)
            out.push_back(ev);
    timeline::reset();
    return out;
}

void
expectSameEvents(const std::vector<timeline::Event> &ref,
                 const std::vector<timeline::Event> &sch)
{
    ASSERT_EQ(ref.size(), sch.size());
    ASSERT_GT(ref.size(), 0u);
    for (size_t i = 0; i < ref.size(); ++i) {
        const timeline::Event &r = ref[i], &s = sch[i];
        ASSERT_STREQ(r.name, s.name) << "event " << i;
        EXPECT_STREQ(r.cat, s.cat) << "event " << i;
        EXPECT_EQ(r.kind, s.kind) << "event " << i << " " << r.name;
        EXPECT_EQ(r.tid, s.tid) << "event " << i << " " << r.name;
        EXPECT_EQ(r.ts, s.ts) << "event " << i << " " << r.name;
        EXPECT_EQ(r.dur, s.dur) << "event " << i << " " << r.name;
        EXPECT_EQ(r.value, s.value) << "event " << i << " " << r.name;
    }
}

/** A stencil large enough to switch data paths and fill the cache. */
struct TimelineProblem
{
    CsrMatrix a = gen::stencil2d(40, 40);
    LocallyDenseMatrix ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    DenseVector x = DenseVector(a.rows(), 1.0);
};

/**
 * Program a fresh reference engine and a fresh scheduled engine with
 * @p table and record the modeled events of @p runs on each: they
 * must match event for event.  Repeated runs start from the cache
 * lines and data path the earlier ones left.
 */
template <typename Runs>
void
expectSameTimeline(const TimelineProblem &p, const ConfigTable &table,
                   Runs runs)
{
    Engine refEngine(makeParams(8, 1)), sch(makeParams(8, 1));
    ReferenceEngine ref(refEngine);
    ref.program(&p.ld, &table);
    sch.program(&p.ld, &table);
    expectSameEvents(modeledEvents([&] { runs(ref); }),
                     modeledEvents([&] { runs(sch); }));
}

} // namespace

TEST(TimelineEquivalence, Spmv)
{
    TimelineProblem p;
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, p.ld);
    expectSameTimeline(p, spmv, [&](auto &e) {
        for (int run = 0; run < 3; ++run)
            e.runSpmv(p.x);
    });
}

TEST(TimelineEquivalence, Spmm)
{
    TimelineProblem p;
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, p.ld);
    expectSameTimeline(p, spmv, [&](auto &e) {
        for (int run = 0; run < 2; ++run)
            e.runSpmm(std::vector<DenseVector>(3, p.x));
    });
}

TEST(TimelineEquivalence, SymgsBothSweeps)
{
    TimelineProblem p;
    for (GsSweep dir : {GsSweep::Forward, GsSweep::Backward}) {
        ConfigTable table =
            ConfigTable::convert(KernelType::SymGS, p.ld, true, dir);
        expectSameTimeline(p, table, [&](auto &e) {
            DenseVector x(p.a.rows(), 0.0);
            for (int run = 0; run < 2; ++run)
                e.runSymgsSweep(p.x, x);
        });
    }
}

// ---------------------------------------------------------------------
// The reference engine's link stack (tests/reference/link_buffer.hh).
// ---------------------------------------------------------------------

TEST(LinkStackUnit, LifoAccumulation)
{
    LinkBuffer stack;
    stack.push({1.0, 2.0});
    stack.push({10.0, 20.0});
    EXPECT_EQ(stack.depth(), 2u);
    DenseVector acc = stack.popAccumulate(2);
    EXPECT_DOUBLE_EQ(acc[0], 11.0);
    EXPECT_DOUBLE_EQ(acc[1], 22.0);
    EXPECT_TRUE(stack.empty());
    EXPECT_EQ(stack.peak(), 2u);
    EXPECT_EQ(stack.pushes(), 2u);
    EXPECT_EQ(stack.pops(), 2u);
}

TEST(LinkStackUnit, EmptyPopIsZero)
{
    LinkBuffer stack;
    DenseVector acc = stack.popAccumulate(4);
    for (Value v : acc)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PayloadLut, MatchesPayloadPosition)
{
    for (Index omega : {Index(4), Index(8)}) {
        for (LdLayout layout : {LdLayout::Plain, LdLayout::SymGs}) {
            Rng rng(7);
            CsrMatrix a = gen::banded(41, 4, 0.8, rng);
            LocallyDenseMatrix ld =
                LocallyDenseMatrix::encode(a, omega, layout);
            // All three ordering cases agree with payloadPosition().
            for (int diagBlk = 0; diagBlk < 2; ++diagBlk) {
                for (int upper = 0; upper < 2; ++upper) {
                    if (diagBlk && upper)
                        continue; // diagonal blocks are never "upper"
                    const int32_t *lut =
                        ld.payloadLut(diagBlk != 0, upper != 0);
                    for (Index lr = 0; lr < omega; ++lr) {
                        for (Index lc = 0; lc < omega; ++lc) {
                            bool sepDiag =
                                layout == LdLayout::SymGs && diagBlk;
                            int64_t want =
                                LocallyDenseMatrix::payloadPosition(
                                    layout, sepDiag, upper != 0, omega,
                                    lr, lc);
                            EXPECT_EQ(
                                int64_t(lut[size_t(lr) * omega + lc]),
                                want)
                                << "layout " << int(layout) << " diag "
                                << diagBlk << " upper " << upper;
                        }
                    }
                }
            }
        }
    }
}

TEST(PayloadLut, BlockValueRoundTripsEveryBlock)
{
    Rng rng(21);
    CsrMatrix a = gen::randomSpd(77, 5, rng);
    for (LdLayout layout : {LdLayout::Plain, LdLayout::SymGs}) {
        LocallyDenseMatrix ld = LocallyDenseMatrix::encode(a, 8, layout);
        // decode() exercises blockValue for every stored element; the
        // round-trip identity proves the LUT wrapper decodes the
        // in-block ordering exactly.
        CsrMatrix back = ld.decode();
        EXPECT_EQ(back.rows(), a.rows());
        EXPECT_EQ(back.vals(), a.vals());
        EXPECT_EQ(back.colIdx(), a.colIdx());
        EXPECT_EQ(back.rowPtr(), a.rowPtr());
    }
}

TEST(ScheduleCache, CompiledOnceAcrossRuns)
{
    Rng rng(5);
    CsrMatrix a = gen::randomSpd(64, 5, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    Engine e(makeParams(8, 1));
    e.program(&ld, &table);
    EXPECT_EQ(e.scheduleCompiles(), 0u);
    DenseVector x(a.cols(), 1.0);
    for (int i = 0; i < 5; ++i)
        e.runSpmv(x);
    EXPECT_EQ(e.scheduleCompiles(), 1u);
    EXPECT_EQ(e.cachedSchedules(), 1u);

    // prepareSchedule is idempotent on a warm cache.
    EXPECT_NE(e.prepareSchedule(), nullptr);
    EXPECT_EQ(e.scheduleCompiles(), 1u);
}

TEST(ScheduleCache, DistinctTablesGetDistinctSchedules)
{
    Rng rng(6);
    CsrMatrix a = gen::banded(80, 4, 0.8, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);
    ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Backward);

    Engine e(makeParams(8, 1));
    DenseVector b(a.rows(), 1.0), x(a.rows(), 0.0);
    for (int i = 0; i < 3; ++i) {
        e.program(&ld, &fwd);
        e.runSymgsSweep(b, x);
        e.program(&ld, &bwd);
        e.runSymgsSweep(b, x);
    }
    // One compile per table, re-used across all later sweeps.
    EXPECT_EQ(e.scheduleCompiles(), 2u);
    EXPECT_EQ(e.cachedSchedules(), 2u);
}

TEST(ScheduleCache, PdeSpmvAndForwardSweepShareOneRowStore)
{
    // The store is laid out in block order, so it depends only on the
    // matrix: SpMV and both sweeps of a PDE load hold the one store the
    // first of them built.  Only that schedule counts it, so the summed
    // footprint counts it once.
    CsrMatrix a = gen::stencil2d(12, 12);
    Accelerator acc(makeParams(8, 1));
    acc.loadPde(a);
    Engine &e = acc.engine();
    auto prepare = [&](KernelType kernel, GsSweep dir) {
        e.program(&acc.matrix(), &acc.table(kernel, dir));
        return e.prepareSchedule();
    };
    const ExecSchedule *fwd = prepare(KernelType::SymGS, GsSweep::Forward);
    const ExecSchedule *bwd = prepare(KernelType::SymGS, GsSweep::Backward);
    const ExecSchedule *spmv = prepare(KernelType::SpMV, GsSweep::Forward);
    EXPECT_EQ(e.scheduleCompiles(), 3u);
    EXPECT_EQ(spmv->rows, fwd->rows);
    EXPECT_EQ(bwd->rows, fwd->rows);
    EXPECT_TRUE(fwd->countsRows);
    EXPECT_FALSE(bwd->countsRows);
    EXPECT_FALSE(spmv->countsRows);
    EXPECT_FALSE(fwd->reversed());
    EXPECT_TRUE(bwd->reversed());
    EXPECT_FALSE(spmv->reversed());

    // The shared store is exactly the one the SpMV table gathers alone.
    const ExecSchedule alone =
        compileSchedule(acc.matrix(), acc.table(KernelType::SpMV), e.params());
    EXPECT_EQ(alone.rows->rowBegin, spmv->rows->rowBegin);
    EXPECT_EQ(alone.rows->rowIndex, spmv->rows->rowIndex);
    EXPECT_EQ(alone.rows->values, spmv->rows->values);
    EXPECT_EQ(alone.totalStreamBytes, spmv->totalStreamBytes);
    EXPECT_EQ(alone.parFlops, spmv->parFlops);
    EXPECT_EQ(spmv->bytes() + alone.rows->bytes(), alone.bytes());
}

TEST(ScheduleCache, EveryPrepareOrderBuildsOneStore)
{
    // Whichever of a PDE load's three tables prepares first builds the
    // store, byte for byte the same, the other two bind it, and the
    // schedules' summed bytes count it once.  Each table's own state
    // does not depend on the order either.
    CsrMatrix a = gen::stencil3d(13, 7, 5);
    const std::pair<KernelType, GsSweep> tables[] = {
        {KernelType::SymGS, GsSweep::Forward},
        {KernelType::SymGS, GsSweep::Backward},
        {KernelType::SpMV, GsSweep::Forward}};
    std::vector<int> order = {0, 1, 2};
    std::string firstStore;
    std::vector<std::string> firstScheds;
    size_t firstBytes = 0;
    int orders = 0;
    do {
        SCOPED_TRACE("order " + std::to_string(order[0]) +
                     std::to_string(order[1]) + std::to_string(order[2]));
        Accelerator acc(makeParams(8, 1));
        acc.loadPde(a);
        Engine &e = acc.engine();
        const ExecSchedule *s[3];
        for (int k : order) {
            e.program(&acc.matrix(),
                      &acc.table(tables[k].first, tables[k].second));
            s[k] = e.prepareSchedule();
        }
        EXPECT_EQ(e.scheduleCompiles(), 3u);
        EXPECT_EQ(s[1]->rows, s[0]->rows);
        EXPECT_EQ(s[2]->rows, s[0]->rows);
        for (int k = 0; k < 3; ++k)
            EXPECT_EQ(s[k]->countsRows, k == order[0]) << "table " << k;
        std::ostringstream store;
        serializeRowStore(store, *s[0]->rows);
        std::vector<std::string> scheds;
        size_t bytes = 0, own = 0;
        for (int k = 0; k < 3; ++k) {
            std::ostringstream out;
            serializeSchedule(out, *s[k]);
            scheds.push_back(out.str());
            bytes += s[k]->bytes();
            ExecSchedule alone = *s[k];
            alone.countsRows = false;
            own += alone.bytes();
        }
        EXPECT_EQ(bytes, own + s[0]->rows->bytes());
        if (orders++ == 0) {
            firstStore = store.str();
            firstScheds = scheds;
            firstBytes = bytes;
            continue;
        }
        EXPECT_EQ(store.str(), firstStore);
        EXPECT_EQ(scheds, firstScheds);
        EXPECT_EQ(bytes, firstBytes);
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(orders, 6);
}

TEST(ScheduleCache, InvalidatedOnReload)
{
    Rng rng(9);
    CsrMatrix a = gen::stencil2d(8, 8);
    Accelerator acc(makeParams(8, 1));
    acc.loadPde(a);
    DenseVector x(a.cols(), 1.0);
    acc.spmv(x);
    EXPECT_EQ(acc.engine().scheduleCompiles(), 1u);

    // Reloading destroys the old matrix/tables; the cache must drop
    // them and compile fresh against the new objects.
    acc.loadPde(a);
    EXPECT_EQ(acc.engine().cachedSchedules(), 0u);
    acc.spmv(x);
    EXPECT_EQ(acc.engine().scheduleCompiles(), 2u);
}

TEST(ScheduleCache, EvictsBeyondCapacity)
{
    Rng rng(10);
    CsrMatrix a = gen::randomSpd(48, 4, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    // Ten distinct tables against one matrix: the MRU cache keeps the
    // most recent eight.
    std::vector<ConfigTable> tables;
    for (int i = 0; i < 10; ++i)
        tables.push_back(ConfigTable::convert(KernelType::SpMV, ld));

    Engine e(makeParams(8, 1));
    DenseVector x(a.cols(), 1.0);
    for (auto &t : tables) {
        e.program(&ld, &t);
        e.runSpmv(x);
    }
    EXPECT_EQ(e.scheduleCompiles(), 10u);
    EXPECT_EQ(e.cachedSchedules(), 8u);

    // The most recent table is still cached...
    e.program(&ld, &tables.back());
    e.runSpmv(x);
    EXPECT_EQ(e.scheduleCompiles(), 10u);
    // ...but the first one was evicted and recompiles.
    e.program(&ld, &tables.front());
    e.runSpmv(x);
    EXPECT_EQ(e.scheduleCompiles(), 11u);
}

TEST(ScheduleCache, ReassignedObjectsDoNotAliasStaleSchedules)
{
    // Regression: the cache used to key slots on the (ld, table)
    // pointer pair.  A matrix/table rebuilt *in place* (or a new object
    // allocated at a recycled address) has the same pointers but
    // different payload, and the stale schedule replayed the OLD
    // matrix's values.  Generation keys make every construction
    // distinct, so the rebuild below must recompile and produce the new
    // matrix's result.
    Rng rng(11);
    CsrMatrix a = gen::randomSpd(64, 5, rng);
    CsrMatrix a2 = a; // same shape...
    for (Value &v : a2.vals()) // ...different payload
        v *= 2.0;

    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    Engine e(makeParams(8, 1));
    e.program(&ld, &table);
    DenseVector x(a.cols(), 1.0);
    DenseVector y1 = e.runSpmv(x);
    EXPECT_EQ(e.scheduleCompiles(), 1u);

    // Rebuild at the same addresses with the same shape.
    ld = LocallyDenseMatrix::encode(a2, 8, LdLayout::Plain);
    table = ConfigTable::convert(KernelType::SpMV, ld);
    e.program(&ld, &table);
    DenseVector y2 = e.runSpmv(x);
    EXPECT_EQ(e.scheduleCompiles(), 2u)
        << "stale schedule served for a rebuilt matrix/table pair";

    // The result must be the doubled matrix's, not the cached one's.
    Engine fresh(makeParams(8, 1));
    LocallyDenseMatrix ld2 =
        LocallyDenseMatrix::encode(a2, 8, LdLayout::Plain);
    ConfigTable table2 = ConfigTable::convert(KernelType::SpMV, ld2);
    fresh.program(&ld2, &table2);
    EXPECT_EQ(y2, fresh.runSpmv(x));
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_EQ(y2[i], 2.0 * y1[i]);
}

// ---------------------------------------------------------------------
// SIMD replay equivalence: the ω-specialized SIMD kernels, the
// scheduled scalar kernels, and the reference engine must agree bit
// for bit -- results, cycles, and the whole stat dump.  On portable
// builds SimdMode::Auto resolves to the scalar table, so these tests
// still pin scalar/scalar/reference equality there.
// ---------------------------------------------------------------------

namespace {

/** Three engines programmed alike: the reference engine, scheduled
 *  scalar, scheduled SIMD. */
struct EngineTriple
{
    Engine refEngine;
    ReferenceEngine interp;
    Engine scalar;
    Engine simd;

    EngineTriple(Index omega, int threads, unsigned bytes_per_cycle = 0)
        : refEngine(makeParams(omega, 1, true, bytes_per_cycle)),
          interp(refEngine),
          scalar(makeParams(omega, threads, false, bytes_per_cycle)),
          simd(makeParams(omega, threads, true, bytes_per_cycle))
    {
    }

    void program(const LocallyDenseMatrix *ld, const ConfigTable *t)
    {
        interp.program(ld, t);
        scalar.program(ld, t);
        simd.program(ld, t);
    }
};

class SimdReplayEquivalence : public ::testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(SimdReplayEquivalence, SpmvRectangularNonMultipleOfOmega)
{
    // 97 x 61: both dimensions indivisible by omega, so every tail
    // chunk exercises the zero-padded staging buffer.
    const Case c = GetParam();
    Rng rng(c.seed);
    CsrMatrix a = gen::randomSparse(97, 61, 5, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    EngineTriple e(c.omega, c.threads, c.bytesPerCycle);
    e.program(&ld, &table);

    DenseVector x(a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 7) - 3.5;

    for (int run = 0; run < 3; ++run) {
        RunTiming ti, tc, tv;
        DenseVector yi = e.interp.runSpmv(x, &ti);
        DenseVector yc = e.scalar.runSpmv(x, &tc);
        DenseVector yv = e.simd.runSpmv(x, &tv);
        ASSERT_EQ(yi, yc) << "run " << run;
        ASSERT_EQ(yi, yv) << "run " << run;
        expectTimingEq(ti, tc, "scalar spmv timing");
        expectTimingEq(ti, tv, "simd spmv timing");
    }
    EXPECT_EQ(statDump(e.refEngine), statDump(e.scalar));
    EXPECT_EQ(statDump(e.refEngine), statDump(e.simd));
}

TEST_P(SimdReplayEquivalence, SpmmRegisterBlocked)
{
    const Case c = GetParam();
    Rng rng(c.seed + 400);
    CsrMatrix a = gen::blockStructured(88, c.omega, 3, 0.5, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    EngineTriple e(c.omega, c.threads, c.bytesPerCycle);
    e.program(&ld, &table);

    // k = 5 right-hand sides: the SpMM kernel's lane groups are only
    // partly filled.
    std::vector<DenseVector> xs(5, DenseVector(a.cols()));
    for (size_t j = 0; j < xs.size(); ++j)
        for (size_t i = 0; i < xs[j].size(); ++i)
            xs[j][i] = Value((i * (2 * j + 1)) % 19) - 9.0;

    for (int run = 0; run < 2; ++run) {
        RunTiming ti, tc, tv;
        auto yi = e.interp.runSpmm(xs, &ti);
        auto yc = e.scalar.runSpmm(xs, &tc);
        auto yv = e.simd.runSpmm(xs, &tv);
        ASSERT_EQ(yi, yc) << "run " << run;
        ASSERT_EQ(yi, yv) << "run " << run;
        expectTimingEq(ti, tc, "scalar spmm timing");
        expectTimingEq(ti, tv, "simd spmm timing");
    }
    EXPECT_EQ(statDump(e.refEngine), statDump(e.scalar));
    EXPECT_EQ(statDump(e.refEngine), statDump(e.simd));
}

TEST_P(SimdReplayEquivalence, SymgsSweepsBothDirections)
{
    const Case c = GetParam();
    Rng rng(c.seed + 500);
    CsrMatrix a = gen::banded(101, 6, 0.7, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::SymGs);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);
    ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Backward);

    EngineTriple e(c.omega, c.threads, c.bytesPerCycle);

    DenseVector b(a.rows(), 1.0);
    DenseVector xi(a.rows(), 0.0), xc(a.rows(), 0.0), xv(a.rows(), 0.0);
    for (int run = 0; run < 4; ++run) {
        const ConfigTable &t = run % 2 ? bwd : fwd;
        e.program(&ld, &t);
        RunTiming ti, tc, tv;
        e.interp.runSymgsSweep(b, xi, &ti);
        e.scalar.runSymgsSweep(b, xc, &tc);
        e.simd.runSymgsSweep(b, xv, &tv);
        ASSERT_EQ(xi, xc) << "sweep " << run;
        ASSERT_EQ(xi, xv) << "sweep " << run;
        expectTimingEq(ti, tc, "scalar symgs timing");
        expectTimingEq(ti, tv, "simd symgs timing");
    }
    EXPECT_EQ(statDump(e.refEngine), statDump(e.scalar));
    EXPECT_EQ(statDump(e.refEngine), statDump(e.simd));
}

INSTANTIATE_TEST_SUITE_P(
    OmegaThreads, SimdReplayEquivalence,
    ::testing::Values(Case{4, 1, 0, 31}, Case{4, 2, 0, 32},
                      Case{4, 8, 0, 33}, Case{8, 1, 0, 34},
                      Case{8, 2, 0, 35}, Case{8, 8, 0, 36},
                      Case{4, 2, 4, 37}, Case{8, 2, 4, 38}),
    caseName);

TEST(SimdReplayEquivalence, SpmvOnLargestFig18Datasets)
{
    // The three largest fig18 datasets by nnz, each through the
    // reference engine and the scheduled scalar and auto-SIMD engines.
    const std::vector<Dataset> suite = scientificSuite();
    for (const char *name :
         {"acoustic-blocks", "cfd-band", "structural-band"}) {
        SCOPED_TRACE(name);
        const CsrMatrix &a = findDataset(suite, name).matrix;
        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
        ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);
        EngineTriple e(8, 1);
        e.program(&ld, &table);

        DenseVector x(a.cols());
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = Value(i % 23) - 11.0;
        RunTiming ti, tc, tv;
        DenseVector yi = e.interp.runSpmv(x, &ti);
        ASSERT_EQ(yi, e.scalar.runSpmv(x, &tc));
        ASSERT_EQ(yi, e.simd.runSpmv(x, &tv));
        expectTimingEq(ti, tc, "scalar spmv timing");
        expectTimingEq(ti, tv, "simd spmv timing");
        EXPECT_EQ(statDump(e.refEngine), statDump(e.scalar));
        EXPECT_EQ(statDump(e.refEngine), statDump(e.simd));
    }
}

TEST(SimdReplay, EmptyMatrix)
{
    // Zero stored blocks: pathCount == 0, nothing staged, y all zero.
    CsrMatrix a = CsrMatrix::fromCoo(CooMatrix(16, 16));
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    EngineTriple e(8, 2);
    e.program(&ld, &table);
    DenseVector x(16, 3.0);
    DenseVector yi = e.interp.runSpmv(x);
    DenseVector yv = e.simd.runSpmv(x);
    EXPECT_EQ(yi, yv);
    EXPECT_EQ(yv, DenseVector(16, 0.0));

    std::vector<DenseVector> xs(2, x);
    EXPECT_EQ(e.interp.runSpmm(xs), e.simd.runSpmm(xs));
    EXPECT_EQ(statDump(e.refEngine), statDump(e.simd));
}

TEST(SimdReplay, SingleBlockRowSmallerThanOmega)
{
    // 5 x 5 at omega = 8: one block row, every lane loop is all tail.
    CsrMatrix a = gen::tridiagonal(5);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, ld);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);

    EngineTriple e(8, 1);
    e.program(&ld, &spmv);
    DenseVector x{1.0, -2.0, 3.0, -4.0, 5.0};
    DenseVector y = e.interp.runSpmv(x);
    EXPECT_EQ(y, e.simd.runSpmv(x));
    EXPECT_EQ(y, e.scalar.runSpmv(x));

    e.program(&ld, &fwd);
    DenseVector b(5, 1.0);
    DenseVector xi(5, 0.0), xv(5, 0.0);
    e.interp.runSymgsSweep(b, xi);
    e.simd.runSymgsSweep(b, xv);
    EXPECT_EQ(xi, xv);
    EXPECT_EQ(statDump(e.refEngine), statDump(e.simd));
}

TEST(SimdReplay, GatherPlanInvariants)
{
    Rng rng(77);
    CsrMatrix a = gen::randomSparse(97, 61, 5, rng);
    for (Index omega : {Index(4), Index(8)}) {
        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::Plain);
        ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);
        ExecSchedule s =
            compileSchedule(ld, table, makeParams(omega, 1));

        // Value records are loadable at full vector width.
        EXPECT_EQ(reinterpret_cast<uintptr_t>(s.rows->values.data()) % 64,
                  0u);
        // The staging length covers the operand in whole chunks.
        EXPECT_EQ(s.paddedOperand % omega, 0u);
        EXPECT_GE(s.paddedOperand, size_t(a.cols()));
        EXPECT_LT(s.paddedOperand, size_t(a.cols()) + omega);
        // GEMV chunk offsets point at the path's block column.
        for (size_t i = 0; i < s.pathCount; ++i) {
            if (s.dp[i] == DataPathType::Gemv) {
                EXPECT_EQ(s.xOff[i], s.blockCol[i] * omega) << i;
            }
            EXPECT_LE(size_t(s.xOff[i]) + omega, s.paddedOperand) << i;
        }
    }
}

TEST(SimdReplay, IsaNameMatchesAvailability)
{
    // isaName() resolves --simd auto: one of the compiled-in ISAs, and
    // "scalar" exactly when no vector ISA both compiled in and runs
    // here.  compiledIsas() always leads with the scalar fallback.
    std::string compiled = replay::compiledIsas();
    EXPECT_EQ(compiled.rfind("scalar", 0), 0u) << compiled;
    std::string isa = replay::isaName();
    EXPECT_NE(compiled.find(isa), std::string::npos)
        << isa << " not in " << compiled;
    if (!replay::simdAvailable()) {
        EXPECT_EQ(isa, "scalar");
    }
    // Forcing scalar always lands on scalar, on every build.
    EXPECT_STREQ(replay::selectedName(SimdMode::Scalar), "scalar");
}

TEST(ScheduleCompile, RecordsMatchMatrixShape)
{
    Rng rng(3);
    CsrMatrix a = gen::blockStructured(64, 8, 3, 0.6, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);
    AccelParams p = makeParams(8, 1);
    ExecSchedule s = compileSchedule(ld, table, p);

    const RowStore &R = *s.rows;
    EXPECT_EQ(s.pathCount, table.entries().size());
    EXPECT_EQ(R.rowBegin.size(), s.pathCount + 1);
    EXPECT_EQ(R.rowBegin.back(), R.rowIndex.size());
    EXPECT_EQ(R.values.size(), R.rowIndex.size() * size_t(p.omega));
    EXPECT_TRUE(s.parallelSafe);
    EXPECT_GT(s.parFlops, 0.0);
    // A schedule that builds its store counts it.
    EXPECT_TRUE(s.countsRows);
    EXPECT_GE(s.bytes(), R.bytes());
    // Every gathered row belongs to its path's block row.
    for (size_t i = 0; i < s.pathCount; ++i) {
        for (size_t rr = R.rowBegin[i]; rr < R.rowBegin[i + 1]; ++rr) {
            EXPECT_EQ(R.rowIndex[rr] / p.omega, s.blockRow[i]);
        }
    }
}
