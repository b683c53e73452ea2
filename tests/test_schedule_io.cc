/**
 * @file
 * Persistent schedule cache (ISSUE 8): content-hash keys, the
 * versioned on-disk format, warm starts with zero compiles, and the
 * recompile fallback on every corruption the loader can meet.  A
 * restored schedule must be indistinguishable from a compiled one --
 * results, cycles, and the whole stat dump bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/replay.hh"
#include "alrescha/sim/schedule.hh"
#include "alrescha/sim/schedule_io.hh"
#include "common/binary_io.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "reference/reference_engine.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

AccelParams
makeParams(Index omega = 8)
{
    AccelParams p;
    p.omega = omega;
    return p;
}

/** A small SpMV problem (matrix + table) owned together. */
struct Problem
{
    CsrMatrix a;
    LocallyDenseMatrix ld;
    ConfigTable table;

    explicit Problem(uint64_t seed, Index omega = 8)
        : a([&] {
              Rng rng(seed);
              return gen::randomSpd(73, 5, rng);
          }()),
          ld(LocallyDenseMatrix::encode(a, omega, LdLayout::Plain)),
          table(ConfigTable::convert(KernelType::SpMV, ld))
    {
    }
};

// A cache file is a 32-byte header -- magic and version (u32), then the
// params fingerprint, body length and body checksum (u64) -- and a
// body.  The helpers below splice legacy or malformed bodies and
// re-frame them under a valid checksum, as any writer could.
constexpr size_t kCacheHeader = 4 + 4 + 3 * 8;

/** @p file's header around @p body -- restamped @p version when that
 *  is given -- with the body's length and checksum. */
std::string
reframe(const std::string &file, const std::string &body,
        uint32_t version = 0)
{
    std::ostringstream out;
    out.write(file.data(), version ? 4 : 8); // magic, version
    if (version)
        bio::writePod<uint32_t>(out, version);
    out.write(file.data() + 8, 8); // params fingerprint
    bio::writePod<uint64_t>(out, uint64_t(body.size()));
    bio::writePod<uint64_t>(out, hash::ofBytes(body.data(), body.size()));
    out << body;
    return out.str();
}

/** The serialized per-path and row vectors of a schedule, in order. */
enum ScheduleVec
{
    kDp, kBlockRow, kBlockCol, kOperandVec, kCfgCycles, kFillCycles,
    kWriteOutRow, kStreamCycles, kMemCycles, kStreamBytes, kStreamedRows,
    kSpmmMemCycles, kXOff, kChainCycles, kRowBegin, kRowIndex, kValues,
    kGroupBegin, kScheduleVecs
};

/** Offset, in a cache body holding one schedule, of the length prefix
 *  of vector @p vec. */
size_t
vectorAt(const std::string &body, ScheduleVec vec)
{
    const size_t elem[kScheduleVecs] = {
        sizeof(DataPathType), sizeof(Index),    sizeof(Index),
        sizeof(CacheVec),     sizeof(uint32_t), sizeof(uint32_t),
        sizeof(int64_t),      sizeof(uint64_t), sizeof(uint64_t),
        sizeof(uint64_t),     sizeof(Index),    sizeof(uint64_t),
        sizeof(uint32_t),     sizeof(uint64_t), sizeof(size_t),
        sizeof(Index),        sizeof(Value),    sizeof(size_t)};
    // Slot count (u32); slot keys (five u64, kernel u8, omega u32);
    // schedule tag (u32), kernel (u8), omega (u32), path count (u64).
    size_t at = 4 + (5 * 8 + 1 + 4) + (4 + 1 + 4 + 8);
    for (int k = 0; k < vec; ++k) {
        uint64_t n = 0;
        std::memcpy(&n, body.data() + at, sizeof(n));
        at += sizeof(n) + n * elem[k];
    }
    return at;
}

/** A length-prefixed vector, serialized. */
template <typename T>
std::string
vecBytes(const std::vector<T> &v)
{
    std::ostringstream out;
    bio::writeVec(out, v);
    return out.str();
}

/**
 * Load @p file, which the current format version frames with a valid
 * checksum around a body replay cannot run safely, into an engine for
 * Problem(@p seed).  The loader must warn and restore nothing -- or,
 * when only the live matrix shows the defect (@p claim_rejects), the
 * cache miss must warn and refuse the restored schedule.  Either way
 * the engine compiles and replays bit-identically to a cold engine.
 */
void
expectRecompiled(const std::string &file, uint64_t seed,
                 bool claim_rejects = false)
{
    std::stringstream in(file);
    Engine warm(makeParams());
    Problem same(seed), fresh(seed);
    Engine cold(makeParams());
    DenseVector x(same.a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 7) - 3.0;

    setLogCapture(true);
    EXPECT_EQ(warm.loadScheduleCache(in), claim_rejects);
    EXPECT_EQ(warm.restoredSchedules(), claim_rejects ? 1u : 0u);
    warm.program(&same.ld, &same.table);
    cold.program(&fresh.ld, &fresh.table);
    for (int run = 0; run < 2; ++run)
        EXPECT_EQ(warm.runSpmv(x), cold.runSpmv(x));
    std::string log = setLogCapture(false);
    EXPECT_NE(log.find(claim_rejects ? "recompiling"
                                     : "schedule cache unusable"),
              std::string::npos)
        << log;
    EXPECT_EQ(warm.scheduleCompiles(), 1u);
    EXPECT_EQ(statDump(warm), statDump(cold));
}

/** A saved one-schedule cache for Problem(@p seed). */
std::string
savedCache(uint64_t seed)
{
    Problem p(seed);
    Engine e(makeParams());
    e.program(&p.ld, &p.table);
    e.prepareSchedule();
    std::stringstream out;
    EXPECT_TRUE(e.saveScheduleCache(out));
    return out.str();
}

} // namespace

TEST(ContentHash, StableAcrossIdenticalObjects)
{
    // Two encodings of the same matrix hash identically even though
    // they are distinct objects with distinct generations -- that is
    // what makes the persisted cache restart-stable.
    Problem p1(42), p2(42);
    EXPECT_EQ(p1.ld.contentHash(), p2.ld.contentHash());
    EXPECT_EQ(p1.table.contentHash(), p2.table.contentHash());

    Problem other(43);
    EXPECT_NE(p1.ld.contentHash(), other.ld.contentHash());
}

TEST(ContentHash, PayloadChangesTheHash)
{
    Rng rng(7);
    CsrMatrix a = gen::randomSpd(48, 4, rng);
    CsrMatrix a2 = a;
    a2.vals()[0] *= 2.0; // same shape, one value differs
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    auto ld2 = LocallyDenseMatrix::encode(a2, 8, LdLayout::Plain);
    EXPECT_NE(ld.contentHash(), ld2.contentHash());

    // Two negated values flip the sign bit of two payload words.  A
    // round that never folds the top bit down (state ^= word; state *=
    // prime) lets the two flips cancel; the hash must not.
    CsrMatrix a3 = a;
    a3.vals()[1] = -a3.vals()[1];
    a3.vals()[5] = -a3.vals()[5];
    auto ld3 = LocallyDenseMatrix::encode(a3, 8, LdLayout::Plain);
    EXPECT_NE(ld.contentHash(), ld3.contentHash());

    // One table entry's output chunk changed, everything else equal.
    auto table = ConfigTable::convert(KernelType::SpMV, ld);
    ASSERT_GT(table.entries().size(), 2u);
    std::stringstream ss;
    table.serialize(ss);
    std::string bytes = ss.str();
    // Header: kernel, direction, reordered (u8 each), omega, n (u32),
    // entry count (u64); entry: dp (u8), inxIn (u32), inxOut (i64),
    // order, op (u8), blockId (u32).
    const size_t entryBytes = 1 + 4 + 8 + 1 + 1 + 4;
    const size_t inxOutAt = 3 + 4 + 4 + 8 + 2 * entryBytes + 1 + 4;
    int64_t inxOut = table.entries()[2].inxOut + 8;
    std::memcpy(bytes.data() + inxOutAt, &inxOut, sizeof(inxOut));
    std::istringstream patched(bytes);
    ConfigTable table2 = ConfigTable::deserialize(patched);
    ASSERT_EQ(table2.entries()[2].inxOut, inxOut);
    EXPECT_EQ(table2.entries()[2].blockId, table.entries()[2].blockId);
    EXPECT_NE(table.contentHash(), table2.contentHash());
}

TEST(ScheduleSerialization, RoundTripReplaysBitIdentically)
{
    Problem p(11);
    AccelParams params = makeParams();
    ExecSchedule s = compileSchedule(p.ld, p.table, params);

    std::stringstream ss;
    serializeSchedule(ss, s);
    ExecSchedule back = deserializeSchedule(ss);
    replay::specialize(back, params);

    // Flat fields and every vector round-trip exactly.
    EXPECT_EQ(back.kernel, s.kernel);
    EXPECT_EQ(back.omega, s.omega);
    EXPECT_EQ(back.pathCount, s.pathCount);
    EXPECT_EQ(back.dp, s.dp);
    EXPECT_EQ(back.rowIndex, s.rowIndex);
    EXPECT_EQ(back.values, s.values);
    EXPECT_EQ(back.rowBegin, s.rowBegin);
    EXPECT_EQ(back.streamCycles, s.streamCycles);
    EXPECT_EQ(back.totalStreamBytes, s.totalStreamBytes);
    EXPECT_EQ(back.parFlops, s.parFlops);
    EXPECT_EQ(back.paddedOperand, s.paddedOperand);
}

TEST(ScheduleCachePersistence, WarmStartCompilesNothing)
{
    Problem p(21);
    AccelParams params = makeParams();
    DenseVector x(p.a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 11) - 5.0;

    // Cold engine: compile, run, persist.
    Engine cold(params);
    cold.program(&p.ld, &p.table);
    DenseVector yCold = cold.runSpmv(x);
    EXPECT_EQ(cold.scheduleCompiles(), 1u);
    std::stringstream ss;
    ASSERT_TRUE(cold.saveScheduleCache(ss));

    // Warm engine: restore, program a *fresh copy* of the same matrix
    // (new generations, same content), run.  Zero compiles.
    Problem fresh(21);
    Engine warm(params);
    ASSERT_TRUE(warm.loadScheduleCache(ss));
    EXPECT_EQ(warm.restoredSchedules(), 1u);
    warm.program(&fresh.ld, &fresh.table);
    EXPECT_NE(warm.prepareSchedule(), nullptr);
    EXPECT_EQ(warm.scheduleCompiles(), 0u);

    // The restored schedule replays bit-identically: results, cycles,
    // and the entire stat dump.
    DenseVector yWarm = warm.runSpmv(x);
    EXPECT_EQ(yCold, yWarm);
    EXPECT_EQ(cold.totalCycles(), warm.totalCycles());
    EXPECT_EQ(statDump(cold), statDump(warm));
    EXPECT_EQ(warm.scheduleCompiles(), 0u);
}

TEST(ScheduleCachePersistence, MultiTableFleetRoundTrip)
{
    // A PDE accelerator persists all three schedules (SpMV + both
    // SymGS sweeps) and a rebuilt accelerator restores every one.
    CsrMatrix a = gen::stencil2d(9, 9);
    AccelParams params = makeParams();

    Accelerator cold(params);
    cold.loadPde(a);
    DenseVector b(a.rows(), 1.0), xc(a.rows(), 0.0);
    cold.spmv(b);
    cold.symgsSweep(b, xc, GsSweep::Symmetric);
    EXPECT_EQ(cold.engine().scheduleCompiles(), 3u);
    std::stringstream ss;
    ASSERT_TRUE(cold.engine().saveScheduleCache(ss));

    Accelerator warm(params);
    warm.loadPde(a);
    ASSERT_TRUE(warm.engine().loadScheduleCache(ss));
    EXPECT_EQ(warm.engine().restoredSchedules(), 3u);
    DenseVector xw(a.rows(), 0.0);
    DenseVector yw = warm.spmv(b);
    warm.symgsSweep(b, xw, GsSweep::Symmetric);
    EXPECT_EQ(warm.engine().scheduleCompiles(), 0u);
    EXPECT_EQ(xc, xw);
    EXPECT_EQ(cold.engine().totalCycles(), warm.engine().totalCycles());
    EXPECT_EQ(statDump(cold.engine()), statDump(warm.engine()));
}

TEST(ScheduleCachePersistence, FileRoundTripAndMissingFile)
{
    Problem p(31);
    Engine e(makeParams());
    e.program(&p.ld, &p.table);
    e.prepareSchedule();

    std::string path = ::testing::TempDir() + "sched_cache_rt.sched";
    ASSERT_TRUE(e.saveScheduleCacheFile(path));

    Engine warm(makeParams());
    EXPECT_TRUE(warm.loadScheduleCacheFile(path));
    EXPECT_EQ(warm.restoredSchedules(), 1u);

    // A missing file is a cold start, not an error.
    Engine cold2(makeParams());
    EXPECT_FALSE(cold2.loadScheduleCacheFile(path + ".does-not-exist"));
    EXPECT_EQ(cold2.restoredSchedules(), 0u);
    std::remove(path.c_str());
}

TEST(ScheduleCachePersistence, CorruptionFallsBackToRecompile)
{
    const std::string bytes = savedCache(41);

    auto loadFails = [&](std::string mutated) {
        std::stringstream ss(std::move(mutated));
        Engine fresh(makeParams());
        bool ok = fresh.loadScheduleCache(ss);
        EXPECT_EQ(fresh.restoredSchedules(), 0u);
        return !ok;
    };

    // Wrong magic.
    {
        std::string bad = bytes;
        bad[0] = char(bad[0] + 1);
        EXPECT_TRUE(loadFails(bad));
    }
    // Truncated at every interesting boundary.
    EXPECT_TRUE(loadFails(bytes.substr(0, 3)));
    EXPECT_TRUE(loadFails(bytes.substr(0, 16)));
    EXPECT_TRUE(loadFails(bytes.substr(0, bytes.size() / 2)));
    EXPECT_TRUE(loadFails(bytes.substr(0, bytes.size() - 1)));
    // A flipped byte anywhere -- header fields or deep inside a
    // serialized double -- fails the body checksum (or a header gate)
    // and the loader rejects the whole file.
    for (size_t off : {size_t(9), size_t(20), size_t(40),
                       bytes.size() / 2, bytes.size() - 2}) {
        std::string bad = bytes;
        bad[off] = char(bad[off] ^ 0x5a);
        EXPECT_TRUE(loadFails(bad)) << "offset " << off;
    }
    // Empty stream.
    EXPECT_TRUE(loadFails(""));

    // After any failed load the engine recompiles and still computes
    // the right answer.
    expectRecompiled(bytes.substr(0, bytes.size() / 2), 41);
}

TEST(ScheduleCachePersistence, VersionOneCacheRecompiles)
{
    // Every older format must be rejected and recompiled.  Version 1
    // keyed schedules on byte-wise FNV-1a digests; versions 1 and 2
    // also wrote each schedule's timing-partition and D-SymGS level
    // boundaries right after the parallelSafe flag; versions 1 to 3
    // also wrote xValid, validRows and rowUseful.  The legacy files
    // built here carry exactly those layouts under a valid checksum,
    // so only the version check stops the loader from misparsing them.
    Problem p(45);
    const std::string file = savedCache(45);
    const std::string body = file.substr(kCacheHeader);
    ExecSchedule s = compileSchedule(p.ld, p.table, makeParams());

    // Version 3: the three arrays, with the values the version-3
    // compiler gave them, in front of xOff, chainCycles and values.
    std::vector<Index> xValid(s.pathCount), validRows(s.pathCount, 0);
    std::vector<Index> rowUseful(s.rowIndex.size());
    for (size_t i = 0; i < s.pathCount; ++i)
        xValid[i] = std::min<Index>(s.omega,
                                    p.a.cols() - s.blockCol[i] * s.omega);
    for (size_t rr = 0; rr < rowUseful.size(); ++rr)
        rowUseful[rr] = Index(std::count_if(
            s.values.begin() + std::ptrdiff_t(rr * s.omega),
            s.values.begin() + std::ptrdiff_t((rr + 1) * s.omega),
            [](Value v) { return v != 0.0; }));
    std::string v3 = body;
    v3.insert(vectorAt(body, kValues), vecBytes(rowUseful));
    v3.insert(vectorAt(body, kChainCycles), vecBytes(validRows));
    v3.insert(vectorAt(body, kXOff), vecBytes(xValid));

    // Versions 1 and 2: the boundary vectors too.  The schedule record
    // ends with the fields that follow them: contiguousRows (u8),
    // finalOutRow (i64), lastDp (u8), ten doubles and three u64.
    const size_t tail = 1 + 8 + 1 + 10 * 8 + 3 * 8;
    ASSERT_EQ(v3[v3.size() - tail - 1], char(s.parallelSafe));
    uint64_t padded = 0;
    std::memcpy(&padded, v3.data() + v3.size() - 8, 8);
    ASSERT_EQ(padded, s.paddedOperand);
    std::string v2 = v3;
    v2.insert(v2.size() - tail,
              vecBytes(std::vector<size_t>{0, s.pathCount / 2,
                                           s.pathCount}) +
                  vecBytes(std::vector<size_t>{})); // no levels in SpMV

    for (uint32_t version : {1u, 2u, 3u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::stringstream old(reframe(file, version < 3 ? v2 : v3, version));
        Engine warm(makeParams());
        setLogCapture(true);
        EXPECT_FALSE(warm.loadScheduleCache(old));
        std::string log = setLogCapture(false);
        EXPECT_NE(log.find("version mismatch"), std::string::npos) << log;
        EXPECT_EQ(warm.restoredSchedules(), 0u);
        Problem same(45);
        warm.program(&same.ld, &same.table);
        EXPECT_NE(warm.prepareSchedule(), nullptr);
        EXPECT_EQ(warm.scheduleCompiles(), 1u);
    }
}

TEST(ScheduleCachePersistence, OperandOffsetOutsideTheStagedOperand)
{
    // Every xOff at 2^30: a chunk load a gigabyte past the staged
    // operand.
    const std::string file = savedCache(46);
    std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kXOff);
    uint64_t n = 0;
    std::memcpy(&n, body.data() + at, sizeof(n));
    ASSERT_GT(n, 0u);
    const uint32_t far = uint32_t(1) << 30;
    for (uint64_t i = 0; i < n; ++i)
        std::memcpy(body.data() + at + 8 + i * sizeof(far), &far,
                    sizeof(far));
    expectRecompiled(reframe(file, body), 46);
}

TEST(ScheduleCachePersistence, PerPathArrayShorterThanThePaths)
{
    // memCycles cut to a single entry: every run would read past it.
    const std::string file = savedCache(47);
    std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kMemCycles);
    const size_t end = vectorAt(body, kStreamBytes);
    body.replace(at, end - at, vecBytes(std::vector<uint64_t>{1}));
    expectRecompiled(reframe(file, body), 47);
}

TEST(ScheduleCachePersistence, RowRecordOutsideTheLiveMatrix)
{
    // The last row record at 2^30: the schedule is consistent on its
    // own, but the matrix it is claimed for has no such row.
    const std::string file = savedCache(49);
    std::string body = file.substr(kCacheHeader);
    const size_t end = vectorAt(body, kValues);
    const Index far = Index(1) << 30;
    std::memcpy(body.data() + end - sizeof(far), &far, sizeof(far));
    expectRecompiled(reframe(file, body), 49, true);
}

TEST(ScheduleCachePersistence, BytesAfterTheLastSchedule)
{
    const std::string file = savedCache(48);
    std::string body = file.substr(kCacheHeader) + std::string(8, '\0');
    expectRecompiled(reframe(file, body), 48);
}

TEST(ScheduleCachePersistence, ParamsFingerprintMismatchRejected)
{
    std::stringstream ss(savedCache(51));

    // A different omega reshapes every schedule: the fingerprint gate
    // rejects the whole file and the engine recompiles.
    AccelParams other = makeParams(8);
    other.cacheBytes *= 2;
    Engine warm(other);
    EXPECT_FALSE(warm.loadScheduleCache(ss));
    EXPECT_EQ(warm.restoredSchedules(), 0u);

    EXPECT_NE(scheduleParamsFingerprint(makeParams(8)),
              scheduleParamsFingerprint(other));
}

TEST(ScheduleCachePersistence, StaleHashRecompilesInsteadOfAliasing)
{
    // Persist a cache for matrix A, restore it, then serve matrix B
    // (same shape, different payload): the content hash must miss and
    // the engine must compile B's schedule, never replay A's.
    Rng rng(61);
    CsrMatrix a = gen::randomSpd(64, 5, rng);
    CsrMatrix b = a;
    for (Value &v : b.vals())
        v *= 3.0;

    AccelParams params = makeParams();
    auto ldA = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    auto tableA = ConfigTable::convert(KernelType::SpMV, ldA);
    Engine cold(params);
    cold.program(&ldA, &tableA);
    cold.prepareSchedule();
    std::stringstream ss;
    ASSERT_TRUE(cold.saveScheduleCache(ss));

    auto ldB = LocallyDenseMatrix::encode(b, 8, LdLayout::Plain);
    auto tableB = ConfigTable::convert(KernelType::SpMV, ldB);
    Engine warm(params);
    ASSERT_TRUE(warm.loadScheduleCache(ss));
    warm.program(&ldB, &tableB);
    DenseVector x(b.cols(), 1.0);
    DenseVector y = warm.runSpmv(x);
    EXPECT_EQ(warm.scheduleCompiles(), 1u)
        << "restored schedule served for a different matrix";

    Engine ref(params);
    ref.program(&ldB, &tableB);
    EXPECT_EQ(y, ref.runSpmv(x));
}

TEST(ScheduleCacheCapacity, ParamBoundsTheCacheAndCountsEvictions)
{
    Rng rng(71);
    CsrMatrix a = gen::randomSpd(48, 4, rng);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    std::vector<ConfigTable> tables;
    for (int i = 0; i < 5; ++i)
        tables.push_back(ConfigTable::convert(KernelType::SpMV, ld));

    AccelParams params = makeParams();
    params.scheduleCacheCapacity = 2;
    Engine e(params);
    DenseVector x(a.cols(), 1.0);
    for (auto &t : tables) {
        e.program(&ld, &t);
        e.runSpmv(x);
    }
    EXPECT_EQ(e.scheduleCompiles(), 5u);
    EXPECT_EQ(e.cachedSchedules(), 2u);
    EXPECT_EQ(e.scheduleEvictions(), 3u);

    // The eviction count is a registered stat, visible in the dump.
    EXPECT_NE(statDump(e).find("schedule_evictions"), std::string::npos);
}

TEST(ScheduleCacheCapacity, RestoredPoolSurvivesEviction)
{
    // Capacity 1 with two restored schedules: each program() switch
    // evicts the other's slot, but promotion out of the restored pool
    // happened at most once per table -- after both promotions the
    // evicted schedule is gone and must recompile (correct, counted).
    CsrMatrix a = gen::stencil2d(8, 8);
    AccelParams params = makeParams();
    Accelerator cold(params);
    cold.loadPde(a);
    DenseVector b(a.rows(), 1.0), x0(a.rows(), 0.0);
    cold.spmv(b);
    cold.symgsSweep(b, x0, GsSweep::Forward);
    std::stringstream ss;
    ASSERT_TRUE(cold.engine().saveScheduleCache(ss));

    AccelParams tiny = params;
    tiny.scheduleCacheCapacity = 1;
    Accelerator warm(tiny);
    warm.loadPde(a);
    ASSERT_TRUE(warm.engine().loadScheduleCache(ss));
    EXPECT_EQ(warm.engine().restoredSchedules(), 2u);

    DenseVector xw(a.rows(), 0.0);
    warm.spmv(b);                               // restore #1
    warm.symgsSweep(b, xw, GsSweep::Forward);   // restore #2, evicts #1
    EXPECT_EQ(warm.engine().scheduleCompiles(), 0u);
    warm.spmv(b); // evicted and no longer in the pool: recompile
    EXPECT_EQ(warm.engine().scheduleCompiles(), 1u);
    EXPECT_GE(warm.engine().scheduleEvictions(), 1u);
}
