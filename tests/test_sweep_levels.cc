/**
 * @file
 * Level-parallel SymGS sweeps (replay::sweepLevels, Engine::runSymgsSweep
 * on the host pool):
 *
 *  - the level order every SymGS schedule derives respects each x-chunk
 *    conflict between its block-row groups (read after write, write
 *    after read, write after write), checked pairwise against the
 *    natural order, and pins the 27-point stencil's level count;
 *  - a sweep run level by level on pools of 2, 3, 4 and 8 threads is
 *    byte-equal to the one-call serial sweep and to the reference
 *    engine, at every runnable --simd mode and omega 2, 4, 8 and 6, on a
 *    wide-level stencil, a circuit-like block-structured matrix, a
 *    banded matrix and a structurally nonsymmetric one;
 *  - the engine takes the parallel path exactly when the work rule
 *    says so, also with two accelerators sweeping at once on one
 *    shared pool, and a sweep started from inside a pool task runs
 *    serially instead of hanging.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/replay.hh"
#include "alrescha/sim/schedule.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "common/timeline.hh"
#include "reference/reference_engine.hh"
#include "sparse/coo.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

AccelParams
makeParams(Index omega, SimdMode mode = SimdMode::Auto, int threads = 1)
{
    AccelParams p;
    p.omega = omega;
    p.hostThreads = threads;
    p.simdMode = mode;
    return p;
}

/** Auto and every mode that resolves to its own table here. */
std::vector<SimdMode>
runnableModes()
{
    std::vector<SimdMode> modes = {SimdMode::Auto};
    for (SimdMode m : {SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2,
                       SimdMode::Avx512, SimdMode::Neon})
        if (std::string(replay::selectedName(m)) == replay::toString(m))
            modes.push_back(m);
    return modes;
}

const std::vector<Index> kOmegas = {2, 4, 8, 6};
const std::vector<int> kPools = {2, 3, 4, 8};

/** A wide-level stencil: at omega 2, 4, 8 and 6 its levels carry more
 *  than ExecSchedule::kLevelRecords records each. */
CsrMatrix
wideStencil()
{
    return gen::stencil3d(144, 16, 8);
}

/** Circuit-like: three dense-ish blocks per block row. */
CsrMatrix
circuitLike()
{
    Rng rng(61);
    return gen::blockStructured(2048, 8, 3, 0.5, rng);
}

/** Banded: one group per level, far below the work rule. */
CsrMatrix
bandedMatrix()
{
    Rng rng(62);
    return gen::banded(1024, 9, 0.7, rng);
}

/** Row r couples only to columns above it (r + 1 .. r + 11): a forward
 *  sweep's groups read chunks only later groups write, so only the
 *  write-after-read edge orders them. */
CsrMatrix
upperCoupledOnly()
{
    const Index n = 700;
    CooMatrix coo(n, n);
    for (Index r = 0; r < n; ++r) {
        coo.add(r, r, 6.0 + Value(r % 5));
        for (Index c = r + 1; c < std::min(n, r + 12); ++c)
            if ((r * 3 + c) % 4 != 0)
                coo.add(r, c, -0.125 - 0.0625 * Value((r + 2 * c) % 3));
    }
    return CsrMatrix::fromCoo(coo);
}

/** A right-hand side with zeros and a starting iterate with -0.0
 *  entries, which a sign-losing reorder of the arithmetic would
 *  expose. */
void
operands(Index n, DenseVector &b, DenseVector &x)
{
    b.assign(n, 0.0);
    x.assign(n, 0.0);
    for (Index r = 0; r < n; ++r) {
        b[r] = r % 5 == 0 ? 0.0 : Value(r % 7) - 3.0;
        x[r] = r % 4 == 0 ? -0.0 : Value(r % 11) * 0.25 - 1.0;
    }
}

bool
sameBytes(const DenseVector &a, const DenseVector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0;
}

/** One encoded matrix with its two sweep tables. */
struct Sweeps
{
    LocallyDenseMatrix ld;
    ConfigTable fwd, bwd;

    Sweeps(const CsrMatrix &a, Index omega)
        : ld(LocallyDenseMatrix::encode(a, omega, LdLayout::SymGs)),
          fwd(ConfigTable::convert(KernelType::SymGS, ld, true,
                                   GsSweep::Forward)),
          bwd(ConfigTable::convert(KernelType::SymGS, ld, true,
                                   GsSweep::Backward))
    {
    }
    const ConfigTable &table(int k) const { return k ? bwd : fwd; }
};

/** Group g's level in @p S, from its sweepOrder and levelBegin. */
std::vector<size_t>
levelsOf(const ExecSchedule &S)
{
    std::vector<size_t> level(S.groupCount(), SIZE_MAX);
    for (size_t l = 0; l < S.levelCount(); ++l)
        for (size_t k = S.levelBegin[l]; k < S.levelBegin[l + 1]; ++k)
            level[S.sweepOrder[k]] = l;
    return level;
}

/**
 * The order is a permutation of the groups, each level's groups
 * ascending and no level empty, and every pair of groups that touch
 * one x chunk, one of them writing it, runs in natural order across
 * levels: the earlier group sits on a strictly lower level.
 */
void
expectRespectsConflicts(const ExecSchedule &S)
{
    const size_t groups = S.groupCount();
    ASSERT_EQ(S.sweepOrder.size(), groups);
    ASSERT_FALSE(S.levelBegin.empty());
    EXPECT_EQ(S.levelBegin.front(), 0u);
    EXPECT_EQ(S.levelBegin.back(), groups);
    for (size_t l = 0; l < S.levelCount(); ++l) {
        ASSERT_LT(S.levelBegin[l], S.levelBegin[l + 1]) << "empty level";
        for (size_t k = S.levelBegin[l] + 1; k < S.levelBegin[l + 1]; ++k)
            EXPECT_LT(S.sweepOrder[k - 1], S.sweepOrder[k]);
    }
    const std::vector<size_t> level = levelsOf(S);
    for (size_t g = 0; g < groups; ++g)
        ASSERT_NE(level[g], SIZE_MAX) << "group " << g << " missing";

    // Every access to every chunk, in natural order.
    struct Access
    {
        size_t group;
        bool write;
    };
    std::vector<std::vector<Access>> byChunk(S.paddedOperand / S.omega);
    for (size_t g = 0; g < groups; ++g) {
        const size_t chain = S.groupBegin[g + 1] - 1;
        for (size_t i = S.groupBegin[g]; i < chain; ++i)
            byChunk[S.xOff[i] / S.omega].push_back({g, false});
        byChunk[S.xOff[chain] / S.omega].push_back({g, true});
    }
    size_t conflicts = 0;
    for (const std::vector<Access> &acc : byChunk)
        for (size_t a = 0; a < acc.size(); ++a)
            for (size_t b = a + 1; b < acc.size(); ++b) {
                if (acc[a].group == acc[b].group ||
                    !(acc[a].write || acc[b].write))
                    continue;
                ++conflicts;
                ASSERT_LT(level[acc[a].group], level[acc[b].group])
                    << "groups " << acc[a].group << " and "
                    << acc[b].group << " conflict";
            }
    EXPECT_GT(conflicts, 0u);
}

/**
 * For every runnable mode and omega: the one-call serial sweep matches
 * the reference engine byte for byte, and replay::sweepLevels on pools
 * of 2, 3, 4 and 8 threads matches the serial sweep, forward and
 * backward, from the operands above.
 */
void
expectLevelsMatchSerial(const CsrMatrix &a)
{
    for (Index omega : kOmegas) {
        Sweeps sw(a, omega);
        const Index n = a.rows();
        DenseVector b, x0;
        operands(n, b, x0);

        // Forward then backward on the reference engine.
        Engine refEngine(makeParams(omega, SimdMode::Scalar));
        ReferenceEngine ref(refEngine);
        std::vector<DenseVector> want;
        DenseVector xr = x0;
        for (int k = 0; k < 2; ++k) {
            ref.program(&sw.ld, &sw.table(k));
            ref.runSymgsSweep(b, xr);
            want.push_back(xr);
        }

        for (SimdMode mode : runnableModes()) {
            SCOPED_TRACE(std::string("mode=") + replay::toString(mode) +
                         " omega=" + std::to_string(omega));
            const AccelParams params = makeParams(omega, mode);
            const ExecSchedule S[2] = {
                compileSchedule(sw.ld, sw.fwd, params),
                compileSchedule(sw.ld, sw.bwd, params)};
            const Value *diag = sw.ld.diagonal().data();

            // The staged iterate and scratch for up to 8 participants.
            AlignedValueVector serial(S[0].paddedOperand, 0.0);
            std::copy(x0.begin(), x0.end(), serial.begin());
            AlignedValueVector links(
                8 * std::max(S[0].linkPeak, S[1].linkPeak) * omega + 1);
            for (int k = 0; k < 2; ++k) {
                S[k].fns.sweep(S[k], b.data(), diag, serial.data(),
                               links.data(), nullptr, 0, S[k].groupCount());
                ASSERT_EQ(std::memcmp(serial.data(), want[k].data(),
                                      n * sizeof(Value)),
                          0)
                    << "serial sweep " << k;
            }
            for (int threads : kPools) {
                ThreadPool pool(threads);
                AlignedValueVector xw(S[0].paddedOperand, 0.0);
                std::copy(x0.begin(), x0.end(), xw.begin());
                for (int k = 0; k < 2; ++k) {
                    replay::sweepLevels(S[k], pool, b.data(), diag,
                                        xw.data(), links.data());
                    ASSERT_EQ(std::memcmp(xw.data(), want[k].data(),
                                          n * sizeof(Value)),
                              0)
                        << threads << " threads, sweep " << k;
                }
            }
        }
    }
}

/** The "symgs.levels" spans the host plane recorded. */
size_t
levelSpans()
{
    size_t n = 0;
    for (const timeline::Event &e : timeline::events())
        n += e.name && std::string(e.name) == "symgs.levels";
    return n;
}

/**
 * Engines at hostThreads 1, 2, 3, 4 and 8 sweep forward, backward and
 * forward again, byte-equal to the reference engine with the same
 * cycles and stat dump, and run each sweep level-parallel -- one
 * worker span per participant -- exactly when the pool has more than
 * one thread and the schedule's levels are wide.
 */
void
expectEngineMatchesReference(const CsrMatrix &a, Index omega)
{
    SCOPED_TRACE("omega " + std::to_string(omega));
    Sweeps sw(a, omega);
    const Index n = a.rows();
    DenseVector b, x0;
    operands(n, b, x0);

    Engine refEngine(makeParams(omega, SimdMode::Scalar));
    ReferenceEngine ref(refEngine);
    std::vector<DenseVector> want;
    std::vector<uint64_t> cycles;
    DenseVector xr = x0;
    for (int run = 0; run < 3; ++run) {
        ref.program(&sw.ld, &sw.table(run % 2));
        RunTiming t;
        ref.runSymgsSweep(b, xr, &t);
        want.push_back(xr);
        cycles.push_back(t.cycles);
    }

    for (int threads : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        Engine e(makeParams(omega, SimdMode::Auto, threads));
        DenseVector x = x0;
        for (int run = 0; run < 3; ++run) {
            e.program(&sw.ld, &sw.table(run % 2));
            const bool wide = e.prepareSchedule()->wideLevels();
            timeline::reset();
            timeline::setPidMask(1u << timeline::kPidHost);
            timeline::setEnabled(true);
            RunTiming t;
            e.runSymgsSweep(b, x, &t);
            timeline::setEnabled(false);
            timeline::setPidMask(~0u);
            EXPECT_EQ(levelSpans(), threads > 1 && wide ? size_t(threads)
                                                        : size_t(0))
                << "run " << run;
            timeline::reset();
            ASSERT_TRUE(sameBytes(x, want[size_t(run)])) << "run " << run;
            EXPECT_EQ(t.cycles, cycles[size_t(run)]) << "run " << run;
        }
        EXPECT_EQ(statDump(e), statDump(refEngine));
    }
}

} // namespace

// ---------------------------------------------------------------------
// The derived order.
// ---------------------------------------------------------------------

TEST(SweepLevels, OrderRespectsEveryChunkConflict)
{
    for (const CsrMatrix &a :
         {wideStencil(), circuitLike(), bandedMatrix(), upperCoupledOnly()}) {
        for (Index omega : kOmegas) {
            SCOPED_TRACE("omega " + std::to_string(omega));
            Sweeps sw(a, omega);
            for (int k = 0; k < 2; ++k)
                expectRespectsConflicts(
                    compileSchedule(sw.ld, sw.table(k), makeParams(omega)));
        }
    }
}

TEST(SweepLevels, UpperCouplingIsOrderedByWriteAfterRead)
{
    // Every forward group reads only chunks that later groups write:
    // there is no read after write to order them, and the derived
    // levels still serialize the whole chain of x^(t-1) reads.
    Sweeps sw(upperCoupledOnly(), 8);
    const ExecSchedule S = compileSchedule(sw.ld, sw.fwd, makeParams(8));
    EXPECT_EQ(S.levelCount(), S.groupCount());
    expectRespectsConflicts(S);
}

TEST(SweepLevels, StencilLevelCountIsPinned)
{
    // The 27-point stencil at omega 8, with at least two chunks per x
    // line: group (cx, y, z) waits on (cx - 1, y, z) (read after write),
    // on (cx + 1, y - 1, z) and (cx + 1, y + 1, z - 1) (write after
    // read), so its level is cx + 2y + 4z + 1.
    struct Shape
    {
        Index nx, ny, nz;
    };
    for (Shape s : {Shape{24, 24, 24}, Shape{48, 48, 48}, Shape{16, 5, 3},
                    Shape{24, 3, 7}, Shape{40, 9, 2}}) {
        const size_t want = size_t(s.nx / 8 - 1) + 2 * size_t(s.ny - 1) +
                            4 * size_t(s.nz - 1) + 1;
        Sweeps sw(gen::stencil3d(s.nx, s.ny, s.nz), 8);
        for (int k = 0; k < 2; ++k)
            EXPECT_EQ(compileSchedule(sw.ld, sw.table(k), makeParams(8))
                          .levelCount(),
                      want)
                << s.nx << "x" << s.ny << "x" << s.nz << " sweep " << k;
    }
    Sweeps sw(gen::stencil3d(24, 24, 24), 8);
    EXPECT_EQ(compileSchedule(sw.ld, sw.fwd, makeParams(8)).levelCount(),
              141u);
}

TEST(SweepLevels, WorkRuleSplitsTheTestMatrices)
{
    for (Index omega : kOmegas) {
        SCOPED_TRACE("omega " + std::to_string(omega));
        Sweeps wide(wideStencil(), omega), band(bandedMatrix(), omega);
        for (int k = 0; k < 2; ++k) {
            EXPECT_TRUE(compileSchedule(wide.ld, wide.table(k),
                                        makeParams(omega))
                            .wideLevels());
            EXPECT_FALSE(compileSchedule(band.ld, band.table(k),
                                         makeParams(omega))
                             .wideLevels());
        }
    }
}

// ---------------------------------------------------------------------
// Level by level on a pool, byte-equal to the serial sweep.
// ---------------------------------------------------------------------

TEST(SweepLevels, WideStencilMatchesSerialOnEveryPool)
{
    expectLevelsMatchSerial(wideStencil());
}

TEST(SweepLevels, CircuitLikeMatchesSerialOnEveryPool)
{
    expectLevelsMatchSerial(circuitLike());
}

TEST(SweepLevels, BandedMatchesSerialOnEveryPool)
{
    expectLevelsMatchSerial(bandedMatrix());
}

TEST(SweepLevels, UpperCoupledOnlyMatchesSerialOnEveryPool)
{
    expectLevelsMatchSerial(upperCoupledOnly());
}

// ---------------------------------------------------------------------
// The engine's choice of path.
// ---------------------------------------------------------------------

// (The kernels of every runnable mode ran level by level above; these
// cases hold the engine's choice of path to the reference.)

TEST(SweepLevels, EngineWideStencilMatchesReference)
{
    const CsrMatrix a = wideStencil();
    for (Index omega : kOmegas)
        expectEngineMatchesReference(a, omega);
}

TEST(SweepLevels, EngineNarrowMatricesStaySerial)
{
    for (const CsrMatrix &a :
         {circuitLike(), bandedMatrix(), upperCoupledOnly()})
        for (Index omega : kOmegas)
            expectEngineMatchesReference(a, omega);
}

TEST(SweepLevels, TwoAcceleratorsShareOnePool)
{
    // Two threads, as serve's drain workers do, each sweep their own
    // accelerator on the process-wide pool at once: each region's slices
    // go to whichever of its participants run, and neither region waits
    // for the other's.
    ThreadPool::setGlobalThreadCount(4);
    const CsrMatrix a = wideStencil();
    Sweeps sw(a, 8);
    const Index n = a.rows();
    DenseVector b, x0;
    operands(n, b, x0);
    DenseVector want = x0;
    {
        Engine serial(makeParams(8));
        for (int run = 0; run < 6; ++run) {
            serial.program(&sw.ld, &sw.table(run % 2));
            serial.runSymgsSweep(b, want);
        }
    }
    DenseVector got[2] = {x0, x0};
    auto worker = [&](int w) {
        Engine e(makeParams(8, SimdMode::Auto, 0));
        for (int run = 0; run < 6; ++run) {
            e.program(&sw.ld, &sw.table(run % 2));
            e.runSymgsSweep(b, got[w]);
        }
    };
    std::thread t0(worker, 0), t1(worker, 1);
    t0.join();
    t1.join();
    EXPECT_TRUE(sameBytes(got[0], want));
    EXPECT_TRUE(sameBytes(got[1], want));
    ThreadPool::setGlobalThreadCount(0);
}

TEST(SweepLevels, SweepFromInsideAPoolTaskRunsSerially)
{
    // The process-wide pool runs four tasks; each sweeps an engine whose
    // host pool is that same pool.  The tasks on workers run the serial
    // sweep (parallelForChunks would run a region's participants inline
    // there), while the caller's task goes level-parallel on the pool
    // whose workers are busy with the others.  All finish with the
    // serial sweep's bits.
    ThreadPool::setGlobalThreadCount(4);
    const CsrMatrix a = wideStencil();
    Sweeps sw(a, 8);
    DenseVector b, x0;
    operands(a.rows(), b, x0);
    DenseVector want = x0;
    {
        Engine serial(makeParams(8));
        serial.program(&sw.ld, &sw.fwd);
        serial.runSymgsSweep(b, want);
    }
    std::vector<DenseVector> got(4, x0);
    std::vector<uint8_t> onWorker(4, 0);
    parallelFor(0, 4, [&](size_t i) {
        onWorker[i] = ThreadPool::onWorkerThread();
        Engine e(makeParams(8, SimdMode::Auto, 0));
        e.program(&sw.ld, &sw.fwd);
        e.runSymgsSweep(b, got[i]);
    });
    EXPECT_EQ(onWorker, (std::vector<uint8_t>{0, 1, 1, 1}));
    for (const DenseVector &x : got)
        EXPECT_TRUE(sameBytes(x, want));
    ThreadPool::setGlobalThreadCount(0);
}

TEST(SweepLevels, OneParticipantFinishesTheSweep)
{
    // Participants take the next slice in level order, so a region whose
    // other participants never start still finishes: here every one runs
    // inline on a pool worker, as participant 0.
    const CsrMatrix a = wideStencil();
    Sweeps sw(a, 8);
    const ExecSchedule S = compileSchedule(sw.ld, sw.fwd, makeParams(8));
    DenseVector b, x0;
    operands(a.rows(), b, x0);
    const Value *diag = sw.ld.diagonal().data();
    AlignedValueVector serial(S.paddedOperand, 0.0), inline_(S.paddedOperand,
                                                             0.0);
    std::copy(x0.begin(), x0.end(), serial.begin());
    std::copy(x0.begin(), x0.end(), inline_.begin());
    AlignedValueVector links(4 * S.linkPeak * 8 + 1);
    S.fns.sweep(S, b.data(), diag, serial.data(), links.data(), nullptr, 0,
                S.groupCount());
    ThreadPool pool(4);
    pool.parallelFor(0, 4, [&](size_t i) {
        if (i == 3)
            replay::sweepLevels(S, pool, b.data(), diag, inline_.data(),
                                links.data());
    });
    EXPECT_EQ(std::memcmp(serial.data(), inline_.data(),
                          a.rows() * sizeof(Value)),
              0);
}
