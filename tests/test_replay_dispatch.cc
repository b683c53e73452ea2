/**
 * @file
 * Runtime replay dispatch and constant-folded specialization:
 *
 *  - every --simd mode the machine runs must replay bit-identically to
 *    the reference engine (results, cycles, the whole stat dump);
 *  - irregular shapes (omega not in {2,4,8}, empty schedules, a single
 *    block row) must take the Generic fallback under every mode;
 *  - forcing an unavailable ISA (params or ALR_SIMD_FORCE) must fall
 *    back down the dispatch chain with a warning, never crash;
 *  - the SymGS sweep kernel must match the reference at every runnable
 *    mode and omega, on consecutive and gapped GEMV rows and on a
 *    block row without GEMVs;
 *  - compileSchedule must stamp the one specialized entry point per
 *    omega (and the generic runtime-omega arms at any other omega),
 *    and a block that skips a row must replay bit-identically;
 *  - the build must keep FP contraction off: a reduction whose result
 *    is exact 0.0 under separate rounding would come out nonzero if
 *    the compiler fused the product into the tree add as an FMA.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/replay.hh"
#include "alrescha/sim/replay_isa.hh"
#include "alrescha/sim/schedule.hh"
#include "common/random.hh"
#include "reference/reference_engine.hh"
#include "sparse/coo.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

AccelParams
makeParams(Index omega, SimdMode mode)
{
    AccelParams p;
    p.omega = omega;
    p.hostThreads = 1;
    p.simdMode = mode;
    return p;
}

/** Every SimdMode, including ones this machine cannot run. */
const std::vector<SimdMode> kAllModes = {
    SimdMode::Auto,   SimdMode::Scalar, SimdMode::Sse2,
    SimdMode::Avx2,   SimdMode::Avx512, SimdMode::Neon,
};

/** Modes that resolve to their own table here (no fallback). */
std::vector<SimdMode>
runnableModes()
{
    std::vector<SimdMode> modes = {SimdMode::Auto};
    for (SimdMode m : kAllModes) {
        if (m != SimdMode::Auto &&
            std::string(replay::selectedName(m)) == replay::toString(m))
            modes.push_back(m);
    }
    return modes;
}

/**
 * Run SpMV, SpMM, and forward and backward SymGS sweeps through the
 * reference engine and a scheduled engine at @p mode; every result,
 * cycle count, and the serialized stat dumps must agree exactly (the
 * sweeps' iterates bit for bit: == would let -0.0 stand for +0.0).
 */
void
expectModeBitIdentical(const CsrMatrix &a, Index omega, SimdMode mode)
{
    SCOPED_TRACE(std::string("mode=") + replay::toString(mode) +
                 " omega=" + std::to_string(omega));
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, omega, LdLayout::SymGs);
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, ld);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);
    ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Backward);

    Engine refEngine(makeParams(omega, SimdMode::Scalar));
    ReferenceEngine ref(refEngine);
    Engine sch(makeParams(omega, mode));

    DenseVector x(a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 13) - 6.0;

    ref.program(&ld, &spmv);
    sch.program(&ld, &spmv);
    for (int run = 0; run < 2; ++run) {
        RunTiming tr, ts;
        DenseVector yr = ref.runSpmv(x, &tr);
        DenseVector ys = sch.runSpmv(x, &ts);
        ASSERT_EQ(yr, ys) << "spmv run " << run;
        EXPECT_EQ(tr.cycles, ts.cycles) << "spmv run " << run;
    }
    // Every SpMM lane group: 2, 4 and 8 right-hand sides per vector,
    // partly filled, and several groups per row.
    for (size_t k : {1, 2, 3, 4, 5, 8, 11}) {
        std::vector<DenseVector> xs(k, x);
        for (size_t j = 0; j < xs.size(); ++j)
            for (size_t i = 0; i < xs[j].size(); ++i)
                xs[j][i] = Value((i * (j + 2)) % 17) - 8.0;
        ASSERT_EQ(ref.runSpmm(xs), sch.runSpmm(xs)) << "k " << k;
    }

    const Index n = a.rows();
    DenseVector b(n), xr(n);
    for (Index r = 0; r < n; ++r) {
        b[r] = r % 5 == 0 ? 0.0 : Value(r % 7) - 3.0;
        xr[r] = r % 4 == 0 ? -0.0 : Value(r % 11) * 0.25 - 1.0;
    }
    DenseVector xv = xr;
    for (int run = 0; run < 4; ++run) {
        const ConfigTable &t = run % 2 ? bwd : fwd;
        ref.program(&ld, &t);
        sch.program(&ld, &t);
        RunTiming tr, ts;
        ref.runSymgsSweep(b, xr, &tr);
        sch.runSymgsSweep(b, xv, &ts);
        ASSERT_EQ(std::memcmp(xr.data(), xv.data(), n * sizeof(Value)), 0)
            << "symgs sweep " << run;
        EXPECT_EQ(tr.cycles, ts.cycles) << "symgs sweep " << run;
    }
    EXPECT_EQ(statDump(refEngine), statDump(sch));
}

} // namespace

// ---------------------------------------------------------------------
// Per-mode equivalence at the specialized omegas.
// ---------------------------------------------------------------------

TEST(ReplayDispatch, EveryRunnableModeBitIdentical)
{
    Rng rng(41);
    CsrMatrix a = gen::banded(101, 5, 0.7, rng);
    for (SimdMode mode : runnableModes())
        for (Index omega : {Index(2), Index(4), Index(8)})
            expectModeBitIdentical(a, omega, mode);
}

// ---------------------------------------------------------------------
// Generic fallback at irregular shapes, under every forced mode.
// ---------------------------------------------------------------------

TEST(ReplayDispatch, IrregularOmegaUsesGenericArm)
{
    // omega=6 has no specialized kernel: compileSchedule must stamp
    // the generic runtime-omega arms.
    Rng rng(43);
    CsrMatrix a = gen::banded(89, 4, 0.8, rng);
    for (SimdMode mode : kAllModes)
        expectModeBitIdentical(a, 6, mode);
}

TEST(ReplayDispatch, EmptyScheduleEveryMode)
{
    CsrMatrix a = CsrMatrix::fromCoo(CooMatrix(16, 16));
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);
    for (SimdMode mode : kAllModes) {
        Engine e(makeParams(8, mode));
        e.program(&ld, &table);
        DenseVector x(16, 3.0);
        EXPECT_EQ(e.runSpmv(x), DenseVector(16, 0.0))
            << replay::toString(mode);
    }
}

TEST(ReplayDispatch, SingleBlockRowEveryMode)
{
    // One omega-wide block row: exactly one path, one group.
    CooMatrix coo(8, 8);
    for (Index r = 0; r < 8; ++r)
        for (Index c = 0; c < 8; ++c)
            coo.add(r, c, Value(r + 1) + Value(c) * 0.25);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    for (SimdMode mode : kAllModes)
        expectModeBitIdentical(a, 8, mode);
}

// ---------------------------------------------------------------------
// The sweep kernel at every runnable mode and omega, on consecutive and
// gapped GEMV rows and on a block row without GEMVs.
// ---------------------------------------------------------------------

namespace {

/** expectModeBitIdentical at every runnable mode and at omega 2, 4, 8
 *  and 6 (the generic arm). */
void
expectEveryModeAndOmega(const CsrMatrix &a)
{
    for (SimdMode mode : runnableModes())
        for (Index omega : {Index(2), Index(4), Index(8), Index(6)})
            expectModeBitIdentical(a, omega, mode);
}

/** An n x n matrix whose row r couples to each column c within @p half
 *  of it where @p keep(r, c) holds, with a dominant diagonal. */
template <typename Keep>
CsrMatrix
bandMatrix(Index n, Index half, Keep keep)
{
    CooMatrix coo(n, n);
    for (Index r = 0; r < n; ++r) {
        coo.add(r, r, 8.0 + Value(r % 3));
        for (Index c = r > half ? r - half : 0; c < std::min(n, r + half + 1);
             ++c)
            if (c != r && keep(r, c))
                coo.add(r, c, -0.25 - 0.125 * Value((r * 7 + c * 3) % 5));
    }
    return CsrMatrix::fromCoo(coo);
}

} // namespace

TEST(SweepKernel, ContiguousRowsEveryModeBitIdentical)
{
    // A full band 20 wide: every row of every off-diagonal block the
    // band touches is occupied, so each GEMV's rows are consecutive.
    CsrMatrix a = bandMatrix(61, 20, [](Index, Index) { return true; });
    expectEveryModeAndOmega(a);
}

TEST(SweepKernel, ScatteredRowsEveryModeBitIdentical)
{
    // Rows r % 4 == 1 hold only their diagonal: from omega 4 up, a GEMV
    // block skips that row between occupied ones.  (At omega 2 a block
    // has two rows, which are always consecutive.)
    CsrMatrix a =
        bandMatrix(61, 20, [](Index r, Index) { return r % 4 != 1; });
    expectEveryModeAndOmega(a);
}

TEST(SweepKernel, BlockRowWithoutGemvsEveryModeBitIdentical)
{
    // Rows 24-47 couple only to their pair partner r ^ 1, which shares
    // their block at every even omega, and 24 and 48 are multiples of
    // 2, 4, 6 and 8: those block rows are their chains alone and pop
    // nothing.
    auto isolated = [](Index r) { return r >= 24 && r < 48; };
    CsrMatrix a = bandMatrix(61, 9, [&](Index r, Index c) {
        return isolated(r) || isolated(c) ? (r ^ 1) == c : true;
    });
    expectEveryModeAndOmega(a);
}

// ---------------------------------------------------------------------
// Forced-mode fallback: never crash, always land on a runnable table.
// ---------------------------------------------------------------------

TEST(ReplayDispatch, ForcedModesNeverCrash)
{
    // Every forced mode must resolve to some runnable table -- on this
    // machine that may mean falling back down the chain (e.g. neon on
    // x86 lands on scalar) -- and then replay bit-identically.
    Rng rng(44);
    CsrMatrix a = gen::banded(67, 4, 0.7, rng);
    for (SimdMode mode : kAllModes) {
        const char *name = replay::selectedName(mode);
        ASSERT_NE(name, nullptr);
        EXPECT_FALSE(std::string(name).empty());
        expectModeBitIdentical(a, 8, mode);
    }
}

TEST(ReplayDispatch, ForcedModeNeverUpgrades)
{
    // A forced narrow mode must not resolve to a wider ISA: forcing
    // sse2 can fall back to scalar (non-x86 builds) but never to avx2.
    std::string sse2 = replay::selectedName(SimdMode::Sse2);
    EXPECT_TRUE(sse2 == "sse2" || sse2 == "scalar") << sse2;
    std::string avx2 = replay::selectedName(SimdMode::Avx2);
    EXPECT_TRUE(avx2 == "avx2" || avx2 == "sse2" || avx2 == "scalar")
        << avx2;
    EXPECT_STREQ(replay::selectedName(SimdMode::Scalar), "scalar");
}

TEST(ReplayDispatch, EnvForceAppliesToAutoOnly)
{
    // ALR_SIMD_FORCE=scalar retargets --simd auto but must not touch
    // an explicitly forced mode; bogus values are ignored with a
    // warning.  select() re-reads the variable on every call.
    ASSERT_EQ(setenv("ALR_SIMD_FORCE", "scalar", 1), 0);
    EXPECT_STREQ(replay::isaName(), "scalar");
    // An explicitly forced mode ignores the env override.
    EXPECT_STREQ(replay::selectedName(SimdMode::Scalar), "scalar");
    if (std::string(replay::selectedName(SimdMode::Sse2)) == "sse2") {
        EXPECT_STREQ(replay::selectedName(SimdMode::Sse2), "sse2");
    }
    ASSERT_EQ(setenv("ALR_SIMD_FORCE", "bogus-isa", 1), 0);
    std::string isa = replay::isaName(); // warns once, keeps auto
    EXPECT_NE(std::string(replay::compiledIsas()).find(isa),
              std::string::npos);
    ASSERT_EQ(unsetenv("ALR_SIMD_FORCE"), 0);

    // A run under a forced-unavailable env mode must still work.
    ASSERT_EQ(setenv("ALR_SIMD_FORCE", "neon", 1), 0);
    Rng rng(45);
    CsrMatrix a = gen::banded(53, 4, 0.8, rng);
    expectModeBitIdentical(a, 8, SimdMode::Auto);
    ASSERT_EQ(unsetenv("ALR_SIMD_FORCE"), 0);
}

// ---------------------------------------------------------------------
// Specialization stamping.
// ---------------------------------------------------------------------

TEST(ReplaySpecialize, StampsSpecializedEntryPoints)
{
    // At omega 2, 4 and 8 every schedule stamps its omega's one slot of
    // the selected table: an SpMV schedule's SpMV and SpMM kernels and a
    // SymGS schedule's sweep kernel.
    Rng rng(46);
    CsrMatrix a = gen::blockStructured(64, 8, 3, 0.6, rng);
    CsrMatrix spd = gen::banded(64, 5, 0.7, rng);
    const replay::detail::KernelTable *t = replay::select(SimdMode::Auto);
    for (Index omega : {Index(2), Index(4), Index(8)}) {
        SCOPED_TRACE("omega " + std::to_string(omega));
        const int oi = replay::detail::omegaIndex(omega);
        ASSERT_GE(oi, 0);
        AccelParams p = makeParams(omega, SimdMode::Auto);
        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::Plain);
        ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);
        ExecSchedule s = compileSchedule(ld, table, p);
        ASSERT_NE(t->spmv[oi], nullptr);
        ASSERT_NE(t->spmm[oi], nullptr);
        ASSERT_NE(t->sweep[oi], nullptr);
        EXPECT_EQ(s.fns.spmv, t->spmv[oi]);
        EXPECT_EQ(s.fns.spmm, t->spmm[oi]);

        LocallyDenseMatrix lds =
            LocallyDenseMatrix::encode(spd, omega, LdLayout::SymGs);
        ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, lds, true,
                                               GsSweep::Forward);
        EXPECT_EQ(compileSchedule(lds, fwd, p).fns.sweep, t->sweep[oi]);
    }

    // omega=6 has no table slot: the generic arms, not any slot.
    AccelParams p = makeParams(6, SimdMode::Auto);
    LocallyDenseMatrix ld6 =
        LocallyDenseMatrix::encode(a, 6, LdLayout::Plain);
    ConfigTable table6 = ConfigTable::convert(KernelType::SpMV, ld6);
    ExecSchedule g = compileSchedule(ld6, table6, p);
    LocallyDenseMatrix lds6 =
        LocallyDenseMatrix::encode(spd, 6, LdLayout::SymGs);
    ConfigTable fwd6 = ConfigTable::convert(KernelType::SymGS, lds6, true,
                                            GsSweep::Forward);
    ExecSchedule gs = compileSchedule(lds6, fwd6, p);
    ASSERT_NE(g.fns.spmv, nullptr);
    ASSERT_NE(g.fns.spmm, nullptr);
    ASSERT_NE(gs.fns.sweep, nullptr);
    for (int oi = 0; oi < 3; ++oi) {
        EXPECT_NE(g.fns.spmv, t->spmv[oi]);
        EXPECT_NE(g.fns.spmm, t->spmm[oi]);
        EXPECT_NE(gs.fns.sweep, t->sweep[oi]);
    }
}

TEST(ReplaySpecialize, RowSkippedInsideABlockReplaysBitIdentically)
{
    // A block that skips a row: rows 0 and 2 occupied, row 1 empty, so
    // the path's row records are not consecutive rows, and each dot
    // must still land in the row its record names.
    CooMatrix gap(16, 16);
    for (Index c = 0; c < 16; ++c) {
        gap.add(0, c, 1.0 + Value(c));
        gap.add(2, c, 2.0 + Value(c)); // row 1 of block 0 empty
    }
    CsrMatrix ag = CsrMatrix::fromCoo(gap);
    LocallyDenseMatrix ldg =
        LocallyDenseMatrix::encode(ag, 8, LdLayout::Plain);
    ConfigTable tg = ConfigTable::convert(KernelType::SpMV, ldg);

    Engine refEngine(makeParams(8, SimdMode::Scalar));
    ReferenceEngine ref(refEngine);
    Engine sch(makeParams(8, SimdMode::Auto));
    ref.program(&ldg, &tg);
    sch.program(&ldg, &tg);
    DenseVector x(16);
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i) - 7.5;
    EXPECT_EQ(ref.runSpmv(x), sch.runSpmv(x));
    for (size_t k : {1, 3, 8}) {
        std::vector<DenseVector> xs(k, x);
        for (size_t j = 0; j < k; ++j)
            xs[j][j] = -2.0 * Value(j + 1);
        EXPECT_EQ(ref.runSpmm(xs), sch.runSpmm(xs)) << "k " << k;
    }
}

// ---------------------------------------------------------------------
// FP contraction stays off (satellite 1).
// ---------------------------------------------------------------------

TEST(ReplayContract, NoFusedMultiplyAddInReductions)
{
    // Row 0 holds [1 + 2^-30, -1]; x = [1 - 2^-30, 1].  The product
    // (1 + 2^-30)(1 - 2^-30) = 1 - 2^-60 rounds to exactly 1.0 in
    // binary64, so the tree sum 1.0 + (-1.0) is exactly 0.0.  If the
    // compiler contracted the product into the tree add as an FMA the
    // unrounded 1 - 2^-60 would survive into the add and y[0] would be
    // about -2^-60, not 0.0.  This must hold in every replay mode and
    // the reference engine -- -ffp-contract=off is project-wide.
    const Value eps = std::ldexp(1.0, -30); // 2^-30
    CooMatrix coo(2, 2);
    coo.add(0, 0, 1.0 + eps);
    coo.add(0, 1, -1.0);
    coo.add(1, 1, 1.0);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    DenseVector x = {1.0 - eps, 1.0};
    LocallyDenseMatrix ld = LocallyDenseMatrix::encode(a, 2, LdLayout::Plain);
    ConfigTable t = ConfigTable::convert(KernelType::SpMV, ld);

    const DenseVector exact = {0.0, 1.0};
    for (SimdMode mode : kAllModes) {
        Engine e(makeParams(2, mode));
        e.program(&ld, &t);
        EXPECT_EQ(e.runSpmv(x), exact) << replay::toString(mode);
    }
    Engine refEngine(makeParams(2, SimdMode::Scalar));
    ReferenceEngine ref(refEngine);
    ref.program(&ld, &t);
    EXPECT_EQ(ref.runSpmv(x), exact) << "reference";
}

// ---------------------------------------------------------------------
// Provenance strings.
// ---------------------------------------------------------------------

TEST(ReplayDispatch, ProvenanceStrings)
{
    std::string compiled = replay::compiledIsas();
    EXPECT_EQ(compiled.rfind("scalar", 0), 0u) << compiled;
    for (SimdMode m : kAllModes) {
        ASSERT_NE(replay::toString(m), nullptr);
        SimdMode parsed;
        ASSERT_TRUE(replay::parseSimdMode(replay::toString(m), &parsed));
        EXPECT_EQ(parsed, m);
    }
    SimdMode parsed;
    EXPECT_FALSE(replay::parseSimdMode("avx99", &parsed));
    EXPECT_STREQ(replay::omegaSpecializations(), "2,4,8");
}
