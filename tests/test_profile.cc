/**
 * @file
 * Cycle-accounting profiler tests: the conservation invariant
 * (attributed cycles sum exactly to the engine's modeled cycles,
 * attributed bytes to the memory model's total traffic), bucket
 * agreement across the reference engine (the table interpreter) and
 * the scheduled scalar / SIMD replay engines, a hand-computed
 * attribution on a two-block-row matrix, the D-SymGS critical-path
 * extractor, the export formats, and the
 * zero-perturbation contract (recorder off => results, cycles, and
 * stat dumps bit-identical).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/profile.hh"
#include "common/random.hh"
#include "reference/reference_engine.hh"
#include "sparse/coo.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

struct ProfileGuard
{
    ProfileGuard()
    {
        profile::reset();
        profile::setEnabled(true);
    }
    ~ProfileGuard()
    {
        profile::setEnabled(false);
        profile::reset();
    }
};

/** The engine a run goes through. */
enum class Mode { Reference, Scalar, Simd };

const char *
toString(Mode mode)
{
    return mode == Mode::Reference ? "reference"
           : mode == Mode::Scalar  ? "scheduled"
                                   : "simd";
}

AccelParams
makeParams(Index omega, Mode mode)
{
    AccelParams p;
    p.omega = omega;
    p.simdMode = mode == Mode::Simd ? SimdMode::Auto : SimdMode::Scalar;
    return p;
}

/** SpMV with x = 1 on an SpMV-loaded @p acc through @p mode. */
DenseVector
runSpmv(Accelerator &acc, Mode mode)
{
    DenseVector x(acc.matrix().cols(), 1.0);
    return mode == Mode::Reference ? referenceSpmv(acc, x) : acc.spmv(x);
}

/** One symmetric sweep with b = 1 from x = 0 through @p mode. */
DenseVector
runSymgs(Accelerator &acc, Mode mode)
{
    DenseVector b(acc.matrix().rows(), 1.0), x(b.size(), 0.0);
    if (mode == Mode::Reference)
        referenceSymgsSweep(acc, b, x, GsSweep::Symmetric);
    else
        acc.symgsSweep(b, x, GsSweep::Symmetric);
    return x;
}

/** Run one kernel under the recorder and return (snapshot, cycles,
 *  memory bytes).  The recorder is reset before the run. */
profile::Snapshot
runProfiled(const CsrMatrix &a, const std::string &kernel, Index omega,
            Mode mode, uint64_t *cycles_out = nullptr,
            double *bytes_out = nullptr)
{
    profile::reset();
    Accelerator acc(makeParams(omega, mode));
    if (kernel == "spmv") {
        acc.loadSpmvOnly(a);
        runSpmv(acc, mode);
    } else if (kernel == "symgs") {
        acc.loadPde(a);
        runSymgs(acc, mode);
    } else {
        // The graph rounds run on the engine (their profile against
        // the reference engine is GraphEquivalence's); no replay mode
        // applies to their scalar record loops.
        acc.loadGraph(a);
        if (kernel == "bfs")
            acc.bfs(0);
        else if (kernel == "sssp")
            acc.sssp(0);
        else if (kernel == "pr")
            acc.pagerank();
        else
            acc.connectedComponents();
    }
    if (cycles_out)
        *cycles_out = acc.engine().totalCycles();
    if (bytes_out)
        *bytes_out = acc.engine().memory().totalBytes();
    return profile::snapshot();
}

void
expectSameBuckets(const profile::Snapshot &a, const profile::Snapshot &b,
                  const std::string &what)
{
    ASSERT_EQ(a.buckets.size(), b.buckets.size()) << what;
    for (size_t i = 0; i < a.buckets.size(); ++i) {
        const profile::BucketRow &ra = a.buckets[i];
        const profile::BucketRow &rb = b.buckets[i];
        EXPECT_EQ(ra.dp, rb.dp) << what << " bucket " << i;
        EXPECT_EQ(ra.blockRow, rb.blockRow) << what << " bucket " << i;
        EXPECT_EQ(ra.cause, rb.cause) << what << " bucket " << i;
        EXPECT_EQ(ra.cycles, rb.cycles)
            << what << " bucket " << i << " ("
            << toString(ra.dp) << ", row " << ra.blockRow << ", "
            << profile::toString(ra.cause) << ")";
        EXPECT_EQ(ra.bytes, rb.bytes)
            << what << " bucket " << i << " ("
            << toString(ra.dp) << ", row " << ra.blockRow << ", "
            << profile::toString(ra.cause) << ")";
    }
}

} // namespace

// ---------------------------------------------------------------------
// Conservation: buckets sum exactly to the engine's cycles and the
// memory model's bytes, for every kernel / engine / omega combination,
// the graph rounds included.

TEST(ProfileConservation, ExactAcrossKernelsEnginesAndOmegas)
{
    ProfileGuard guard;
    Rng rng(7);
    CsrMatrix a = gen::blockStructured(96, 8, 4, 0.7, rng);

    for (const char *kernel : {"spmv", "symgs"}) {
        for (Index omega : {Index(4), Index(8)}) {
            for (Mode mode : {Mode::Reference, Mode::Scalar, Mode::Simd}) {
                uint64_t cycles = 0;
                double bytes = 0.0;
                profile::Snapshot snap =
                    runProfiled(a, kernel, omega, mode, &cycles, &bytes);
                std::string what = std::string(kernel) + " omega " +
                                   std::to_string(omega) + " " +
                                   toString(mode);
                EXPECT_EQ(snap.attributedCycles, cycles) << what;
                EXPECT_EQ(double(snap.attributedBytes), bytes) << what;
                EXPECT_GT(snap.buckets.size(), 0u) << what;
            }
        }
    }

    CsrMatrix g = gen::rmat(8, 8, rng);
    for (const char *kernel : {"bfs", "sssp", "pr", "cc"}) {
        for (Index omega : {Index(4), Index(8)}) {
            uint64_t cycles = 0;
            double bytes = 0.0;
            profile::Snapshot snap =
                runProfiled(g, kernel, omega, Mode::Scalar, &cycles, &bytes);
            std::string what =
                std::string(kernel) + " omega " + std::to_string(omega);
            EXPECT_EQ(snap.attributedCycles, cycles) << what;
            EXPECT_EQ(double(snap.attributedBytes), bytes) << what;
            EXPECT_GT(snap.runs, 1u) << what;
        }
    }
}

// ---------------------------------------------------------------------
// Engine agreement: the reference engine, the scheduled scalar walk,
// and the SIMD replay attribute every bucket identically.

TEST(ProfileAgreement, InterpreterScheduledSimdIdentical)
{
    ProfileGuard guard;
    Rng rng(11);
    CsrMatrix a = gen::blockStructured(128, 8, 5, 0.6, rng);

    for (const char *kernel : {"spmv", "symgs"}) {
        for (Index omega : {Index(4), Index(8)}) {
            profile::Snapshot si =
                runProfiled(a, kernel, omega, Mode::Reference);
            profile::Snapshot ss = runProfiled(a, kernel, omega, Mode::Scalar);
            profile::Snapshot sv = runProfiled(a, kernel, omega, Mode::Simd);
            std::string what = std::string(kernel) + " omega " +
                               std::to_string(omega);
            expectSameBuckets(si, ss, what + " reference-vs-scheduled");
            expectSameBuckets(ss, sv, what + " scalar-vs-simd");
        }
    }
}

// ---------------------------------------------------------------------
// Hand-computed attribution: dense 4x4 at omega 2 (two block rows, four
// full blocks).  Every charge is derivable from AccelParams by hand:
//   reconfigure (first ever, fully exposed)     8 cycles  @ row 0
//   pipeline fill = alu 3 + 1 tree level * 3    6 cycles  @ row 0
//   x^t chunk reads: cols 0,1 miss then hit     1+1 cycle @ row 0
//   per-block stream: 2 occupied rows * 16 B -> 1 memory cycle but a
//     2-cycle issue floor: Stream 1 + FcuCompute 1, four blocks
//   out-row writebacks: rows 0, 1 allocate      0 cycles, 64 B each
//   end-of-run drain                            6 cycles  @ run level
// Total 8 + 6 + 2 + 4*2 + 6 = 30 cycles; bytes 4*32 streamed plus
// 4 line fills (2 x^t reads + 2 out writes) * 64 = 384.

TEST(ProfileHandComputed, DenseTwoBlockRowSpmvAtOmega2)
{
    ProfileGuard guard;
    CooMatrix coo(4, 4);
    for (Index r = 0; r < 4; ++r)
        for (Index c = 0; c < 4; ++c)
            coo.add(r, c, 1.0 + double(r) * 4.0 + double(c));
    CsrMatrix a = CsrMatrix::fromCoo(coo);

    for (Mode mode : {Mode::Reference, Mode::Scalar}) {
        uint64_t cycles = 0;
        double bytes = 0.0;
        profile::Snapshot snap =
            runProfiled(a, "spmv", 2, mode, &cycles, &bytes);
        const char *what = toString(mode);

        EXPECT_EQ(cycles, 30u) << what;
        EXPECT_EQ(snap.attributedCycles, 30u) << what;
        EXPECT_EQ(bytes, 384.0) << what;
        EXPECT_EQ(snap.attributedBytes, 384u) << what;

        struct Expect
        {
            int64_t row;
            profile::Cause cause;
            uint64_t cycles;
            uint64_t bytes;
        };
        const Expect expected[] = {
            {-1, profile::Cause::TreeDrain, 6, 0},
            {0, profile::Cause::Stream, 2, 64},
            {0, profile::Cause::FcuCompute, 8, 0},
            {0, profile::Cause::ReconfigExposed, 8, 0},
            {0, profile::Cause::CacheMiss, 2, 192},
            {1, profile::Cause::Stream, 2, 64},
            {1, profile::Cause::FcuCompute, 2, 0},
            {1, profile::Cause::CacheMiss, 0, 64},
        };
        ASSERT_EQ(snap.buckets.size(), std::size(expected)) << what;
        for (size_t i = 0; i < std::size(expected); ++i) {
            const profile::BucketRow &r = snap.buckets[i];
            EXPECT_EQ(r.dp, DataPathType::Gemv) << what << " " << i;
            EXPECT_EQ(r.blockRow, expected[i].row) << what << " " << i;
            EXPECT_EQ(r.cause, expected[i].cause) << what << " " << i;
            EXPECT_EQ(r.cycles, expected[i].cycles)
                << what << " bucket " << i << " ("
                << profile::toString(r.cause) << ")";
            EXPECT_EQ(r.bytes, expected[i].bytes)
                << what << " bucket " << i << " ("
                << profile::toString(r.cause) << ")";
        }
    }
}

// ---------------------------------------------------------------------
// D-SymGS critical path: a sweep records one chain record per diagonal
// block, per-row aggregates conserve the dsymgs_wait buckets, and a
// serialized (block-diagonal-only) matrix reports a dependence-bound
// longest chain.

TEST(ProfileCriticalPath, BlockDiagonalSweepIsDependenceBound)
{
    ProfileGuard guard;
    Rng rng(13);
    CsrMatrix a = gen::blockStructured(128, 8, 1, 0.9, rng);

    uint64_t cycles = 0;
    profile::Snapshot snap =
        runProfiled(a, "symgs", 8, Mode::Simd, &cycles);

    ASSERT_FALSE(snap.critical.empty());
    uint64_t chains = 0, wait_rows = 0;
    for (const profile::CriticalRow &r : snap.critical) {
        chains += r.chains;
        wait_rows += r.waitCycles;
        EXPECT_LE(r.depBoundChains, r.chains);
    }
    // Symmetric sweep: forward + backward each execute every diagonal
    // block once.
    EXPECT_EQ(chains, 2u * uint64_t(a.rows()) / 8u);

    uint64_t wait_buckets = 0;
    for (const profile::BucketRow &r : snap.buckets) {
        if (r.cause == profile::Cause::DSymgsWait) {
            EXPECT_EQ(r.dp, DataPathType::DSymgs);
            wait_buckets += r.cycles;
        }
    }
    EXPECT_EQ(wait_rows, wait_buckets);
    // Pure diagonal work: the recurrence dominates the stream, so most
    // of the run is wait, and the longest chain spans multiple rows.
    EXPECT_GT(wait_buckets, cycles / 2);
    EXPECT_GT(snap.longestChainCycles, 0u);
    EXPECT_GE(snap.longestChainLastRow, snap.longestChainFirstRow);
}

// ---------------------------------------------------------------------
// Zero perturbation: with the recorder off, results, cycle counts, and
// the full stat dump are bit-identical to a recorded run.

TEST(ProfileZeroPerturbation, RecorderOffIsBitIdentical)
{
    Rng rng(17);
    CsrMatrix a = gen::blockStructured(96, 8, 4, 0.7, rng);

    for (Mode mode : {Mode::Reference, Mode::Simd}) {
        AccelParams params = makeParams(8, mode);

        profile::setEnabled(false);
        profile::reset();
        Accelerator off(params);
        off.loadPde(a);
        DenseVector x_off = runSymgs(off, mode);
        DenseVector y_off = runSpmv(off, mode);
        std::ostringstream dump_off;
        off.engine().statGroup().dump(dump_off);
        EXPECT_EQ(profile::snapshot().buckets.size(), 0u);

        ProfileGuard guard;
        Accelerator on(params);
        on.loadPde(a);
        DenseVector x_on = runSymgs(on, mode);
        DenseVector y_on = runSpmv(on, mode);
        std::ostringstream dump_on;
        on.engine().statGroup().dump(dump_on);
        EXPECT_GT(profile::snapshot().buckets.size(), 0u);

        EXPECT_EQ(off.engine().totalCycles(), on.engine().totalCycles());
        ASSERT_EQ(x_off.size(), x_on.size());
        for (size_t i = 0; i < x_off.size(); ++i)
            EXPECT_EQ(x_off[i], x_on[i]) << "x[" << i << "]";
        for (size_t i = 0; i < y_off.size(); ++i)
            EXPECT_EQ(y_off[i], y_on[i]) << "y[" << i << "]";
        EXPECT_EQ(dump_off.str(), dump_on.str());
    }
}

// ---------------------------------------------------------------------
// Exports: the JSON document carries the meta block and conserves in
// its own fields; the CSV heatmap and folded stacks cover every bucket.

TEST(ProfileExport, JsonCsvAndFoldedAreConsistent)
{
    ProfileGuard guard;
    Rng rng(19);
    CsrMatrix a = gen::blockStructured(64, 8, 3, 0.8, rng);
    uint64_t cycles = 0;
    profile::Snapshot snap =
        runProfiled(a, "symgs", 8, Mode::Simd, &cycles);

    std::ostringstream js;
    profile::exportJson(js, {"symgs", 8, cycles});
    const std::string doc = js.str();
    EXPECT_NE(doc.find("\"kernel\": \"symgs\""), std::string::npos);
    EXPECT_NE(doc.find("\"total_cycles\": " + std::to_string(cycles)),
              std::string::npos);
    EXPECT_NE(doc.find("\"attributed_cycles\": " +
                       std::to_string(cycles)),
              std::string::npos);
    EXPECT_NE(doc.find("\"critical_path\""), std::string::npos);
    EXPECT_NE(doc.find("\"version\""), std::string::npos);

    std::ostringstream csv;
    profile::exportCsv(csv);
    // Header + one line per distinct block row (incl. -1).
    size_t lines = 0;
    for (char c : csv.str())
        lines += c == '\n';
    std::set<int64_t> rows;
    for (const profile::BucketRow &r : snap.buckets)
        rows.insert(r.blockRow);
    EXPECT_EQ(lines, rows.size() + 1);

    std::ostringstream folded;
    profile::exportFolded(folded);
    size_t folded_lines = 0;
    for (char c : folded.str())
        folded_lines += c == '\n';
    size_t nonzero = 0;
    for (const profile::BucketRow &r : snap.buckets)
        nonzero += r.cycles > 0;
    EXPECT_EQ(folded_lines, nonzero);

    std::vector<profile::BucketRow> hot = profile::hotspots(5);
    ASSERT_LE(hot.size(), 5u);
    ASSERT_FALSE(hot.empty());
    for (size_t i = 1; i < hot.size(); ++i)
        EXPECT_GE(hot[i - 1].cycles, hot[i].cycles);
    EXPECT_EQ(hot[0].cycles, snap.buckets.empty()
                                 ? 0u
                                 : [&] {
                                       uint64_t m = 0;
                                       for (const auto &r : snap.buckets)
                                           m = std::max(m, r.cycles);
                                       return m;
                                   }());
}
