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
#include "common/thread_pool.hh"
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

/** The serialized vectors of a cache body holding one row store and one
 *  schedule, in file order: the store's, then the schedule's. */
enum ScheduleVec
{
    kRowBegin, kRowIndex, kValues, kDp, kBlockRow, kBlockCol, kOperandVec,
    kXOff, kGroupBegin, kScheduleVecs
};

/** Bytes of such a body in front of the store's first vector: the store
 *  count (u32), then the store's tag (u32), key (u64) and omega (u32). */
constexpr size_t kStoreHead = 4 + (4 + 8 + 4);

/** Bytes between the store's last vector and the schedule's first: the
 *  schedule count (u32), the slot's keys (five u64, kernel u8, omega
 *  u32) and store index (u32), and the schedule's tag (u32), kernel
 *  (u8), omega (u32) and path count (u64). */
constexpr size_t kSlotHead = 4 + (5 * 8 + 1 + 4) + 4 + (4 + 1 + 4 + 8);

/** Offset, in a cache body holding one store and one schedule, of the
 *  length prefix of vector @p vec. */
size_t
vectorAt(const std::string &body, ScheduleVec vec)
{
    const size_t elem[kScheduleVecs] = {
        sizeof(size_t),   sizeof(Index), sizeof(Value),
        sizeof(DataPathType), sizeof(Index), sizeof(Index),
        sizeof(CacheVec), sizeof(uint32_t), sizeof(size_t)};
    size_t at = kStoreHead;
    for (int k = 0; k < vec; ++k) {
        uint64_t n = 0;
        std::memcpy(&n, body.data() + at, sizeof(n));
        at += sizeof(n) + n * elem[k];
        if (k == kValues)
            at += kSlotHead;
    }
    return at;
}

/** The length-prefixed vector of @p T at offset @p at of @p body. */
template <typename T>
std::vector<T>
vecAt(const std::string &body, size_t at)
{
    uint64_t n = 0;
    std::memcpy(&n, body.data() + at, sizeof(n));
    std::vector<T> v(n);
    std::memcpy(v.data(), body.data() + at + sizeof(n), n * sizeof(T));
    return v;
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
    serializeRowStore(ss, *s.rows);
    serializeSchedule(ss, s);
    auto rows = std::make_shared<const RowStore>(deserializeRowStore(ss));
    ExecSchedule back = deserializeSchedule(ss, rows);
    replay::specialize(back, params);

    // Flat fields and every vector round-trip exactly.
    EXPECT_EQ(back.kernel, s.kernel);
    EXPECT_EQ(back.omega, s.omega);
    EXPECT_EQ(back.pathCount, s.pathCount);
    EXPECT_EQ(back.dp, s.dp);
    EXPECT_EQ(back.rows, rows);
    EXPECT_EQ(rows->key, s.rows->key);
    EXPECT_EQ(rows->rowIndex, s.rows->rowIndex);
    EXPECT_EQ(rows->values, s.rows->values);
    EXPECT_EQ(rows->rowBegin, s.rows->rowBegin);
    EXPECT_EQ(back.xOff, s.xOff);
    EXPECT_EQ(back.lastDp, s.lastDp);
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

TEST(ScheduleCachePersistence, RoundTripKeepsRowStoreSharing)
{
    // A PDE load's SpMV and forward-SymGS schedules share one row store
    // and the backward sweep holds its own: the file carries the two
    // stores once each, and the restored schedules share them again.
    CsrMatrix a = gen::stencil2d(11, 11);
    AccelParams params = makeParams();
    auto prepareAll = [](Accelerator &acc) {
        std::vector<const ExecSchedule *> s;
        for (auto [kernel, dir] :
             {std::pair{KernelType::SpMV, GsSweep::Forward},
              std::pair{KernelType::SymGS, GsSweep::Forward},
              std::pair{KernelType::SymGS, GsSweep::Backward}}) {
            acc.engine().program(&acc.matrix(), &acc.table(kernel, dir));
            s.push_back(acc.engine().prepareSchedule());
        }
        return s;
    };
    // The row-store bytes the schedules count between them.
    auto storeBytes = [](const std::vector<const ExecSchedule *> &s) {
        size_t bytes = 0;
        for (const ExecSchedule *x : s)
            bytes += x->countsRows ? x->rows->bytes() : 0;
        return bytes;
    };

    Accelerator cold(params);
    cold.loadPde(a);
    const auto coldScheds = prepareAll(cold);
    EXPECT_EQ(coldScheds[0]->rows, coldScheds[1]->rows);
    EXPECT_NE(coldScheds[1]->rows, coldScheds[2]->rows);
    std::stringstream ss;
    ASSERT_TRUE(cold.engine().saveScheduleCache(ss));
    const std::string file = ss.str();
    uint32_t stores = 0;
    std::memcpy(&stores, file.data() + kCacheHeader, sizeof(stores));
    EXPECT_EQ(stores, 2u);

    Accelerator warm(params);
    warm.loadPde(a);
    ASSERT_TRUE(warm.engine().loadScheduleCache(ss));
    EXPECT_EQ(warm.engine().restoredSchedules(), 3u);
    const auto warmScheds = prepareAll(warm);
    EXPECT_EQ(warm.engine().scheduleCompiles(), 0u);
    EXPECT_EQ(warmScheds[0]->rows, warmScheds[1]->rows);
    EXPECT_NE(warmScheds[1]->rows, warmScheds[2]->rows);
    // Exactly one of the sharing pair counts the store, so the summed
    // footprint counts each store once, as it does on the cold side.
    EXPECT_NE(warmScheds[0]->countsRows, warmScheds[1]->countsRows);
    EXPECT_TRUE(warmScheds[2]->countsRows);
    EXPECT_EQ(storeBytes(warmScheds), storeBytes(coldScheds));
    EXPECT_EQ(storeBytes(warmScheds),
              warmScheds[1]->rows->bytes() + warmScheds[2]->rows->bytes());
    // A restored schedule reports the footprint its compiled original
    // did.
    auto totalBytes = [](const std::vector<const ExecSchedule *> &s) {
        size_t bytes = 0;
        for (const ExecSchedule *x : s)
            bytes += x->bytes();
        return bytes;
    };
    EXPECT_EQ(totalBytes(warmScheds), totalBytes(coldScheds));
    // The sweep levels are derived, not persisted: the restored
    // schedules derive the compiled ones' order.
    for (size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(warmScheds[k]->sweepOrder, coldScheds[k]->sweepOrder);
        EXPECT_EQ(warmScheds[k]->levelBegin, coldScheds[k]->levelBegin);
        EXPECT_EQ(coldScheds[k]->levelCount() > 0, k > 0);
    }

    DenseVector b(a.rows(), 1.0), xc(a.rows(), 0.0), xw(a.rows(), 0.0);
    EXPECT_EQ(cold.spmv(b), warm.spmv(b));
    cold.symgsSweep(b, xc, GsSweep::Symmetric);
    warm.symgsSweep(b, xw, GsSweep::Symmetric);
    EXPECT_EQ(xc, xw);
    EXPECT_EQ(statDump(cold.engine()), statDump(warm.engine()));
}

TEST(ScheduleCachePersistence, GraphSchedulesShareOneRowStore)
{
    // A graph load's BFS, SSSP, PageRank and SpMV tables visit the same
    // blocks in the same order, so their four schedules (connected
    // components runs on the BFS table) share one row store.  The file
    // carries it once, and a warm engine restores all four without a
    // compile, with the same results, timing and stats.
    Rng rng(5);
    CsrMatrix g = gen::rmat(8, 8, rng);
    const DenseVector x(g.rows(), 0.5);
    struct Outcome
    {
        std::vector<DenseVector> values;
        std::vector<RunTiming> timings;
    };
    auto runAll = [&](Accelerator &acc) {
        Outcome o;
        auto note = [&](DenseVector v) {
            const Engine &e = acc.engine();
            o.values.push_back(std::move(v));
            o.timings.push_back(
                {e.totalCycles(), e.seqCycles(), e.parCycles()});
        };
        note(acc.bfs(0).values);
        note(acc.sssp(0).values);
        note(acc.pagerank().values);
        note(acc.connectedComponents().values);
        note(acc.spmv(x));
        return o;
    };
    auto schedules = [](Accelerator &acc) {
        std::vector<const ExecSchedule *> s;
        for (KernelType k : {KernelType::BFS, KernelType::SSSP,
                             KernelType::PageRank, KernelType::SpMV}) {
            acc.engine().program(&acc.matrix(), &acc.table(k));
            s.push_back(acc.engine().prepareSchedule());
        }
        return s;
    };

    Accelerator cold(makeParams());
    cold.loadGraph(g);
    const Outcome coldOut = runAll(cold);
    EXPECT_EQ(cold.engine().cachedSchedules(), 4u);
    std::stringstream ss;
    ASSERT_TRUE(cold.engine().saveScheduleCache(ss));
    const std::string file = ss.str();
    uint32_t stores = 0;
    std::memcpy(&stores, file.data() + kCacheHeader, sizeof(stores));
    EXPECT_EQ(stores, 1u);

    Accelerator warm(makeParams());
    warm.loadGraph(g);
    ASSERT_TRUE(warm.engine().loadScheduleCache(ss));
    EXPECT_EQ(warm.engine().restoredSchedules(), 4u);
    const Outcome warmOut = runAll(warm);
    EXPECT_EQ(warm.engine().scheduleCompiles(), 0u);
    ASSERT_EQ(warmOut.values.size(), coldOut.values.size());
    for (size_t i = 0; i < coldOut.values.size(); ++i) {
        EXPECT_EQ(warmOut.values[i], coldOut.values[i]) << "kernel " << i;
        EXPECT_EQ(warmOut.timings[i].cycles, coldOut.timings[i].cycles);
        EXPECT_EQ(warmOut.timings[i].seqCycles, coldOut.timings[i].seqCycles);
        EXPECT_EQ(warmOut.timings[i].parCycles, coldOut.timings[i].parCycles);
    }
    EXPECT_EQ(statDump(warm.engine()), statDump(cold.engine()));
    const auto restored = schedules(warm);
    for (const ExecSchedule *s : restored)
        EXPECT_EQ(s->rows, restored[0]->rows);
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
    // also wrote xValid, validRows and rowUseful; versions 1 to 4 also
    // wrote nine per-path timing arrays, the final out row and the
    // reconfiguration totals; versions 1 to 5 wrote each schedule's row
    // records inside it, and its SpMM stream bytes.  The legacy files
    // built here carry exactly those layouts, with the values those
    // compilers gave them, under a valid checksum, so only the version
    // check stops the loader from misparsing them.
    Problem p(45);
    const AccelParams params = makeParams();
    const std::string file = savedCache(45);
    ExecSchedule s = compileSchedule(p.ld, p.table, params);
    const RowStore &R = *s.rows;
    const size_t P = s.pathCount;
    ASSERT_EQ(s.kernel, KernelType::SpMV);
    ASSERT_TRUE(std::all_of(s.dp.begin(), s.dp.end(), [](DataPathType dp) {
        return dp == DataPathType::Gemv;
    }));

    // Version 4's timing terms of an all-GEMV SpMV schedule that skips
    // empty rows: no switch after the first path, so one pipeline fill;
    // the out chunk written back on each block-row change; each path
    // streaming its occupied rows.
    const MemoryModel mem(params);
    const uint32_t fill = uint32_t(Fcu(params).fillLatency(ReduceOp::Sum));
    std::vector<uint32_t> cfgCycles(P, 0), fillCycles(P, 0);
    std::vector<int64_t> writeOutRow(P, -1);
    std::vector<uint64_t> streamCycles(P), memCycles(P), streamBytes(P);
    std::vector<uint64_t> spmmMemCycles(P), chainCycles(P, 0);
    std::vector<Index> streamedRows(P);
    int64_t curRow = -1;
    for (size_t i = 0; i < P; ++i) {
        const Index occupied = Index(s.pathRows(i));
        const uint64_t bytes = uint64_t(occupied) * s.omega * sizeof(Value);
        if (i == 0)
            fillCycles[i] = fill;
        if (int64_t(s.blockRow[i]) != curRow) {
            writeOutRow[i] = curRow;
            curRow = s.blockRow[i];
        }
        memCycles[i] = spmmMemCycles[i] = mem.streamCycles(bytes);
        streamCycles[i] = std::max<uint64_t>(occupied, memCycles[i]);
        streamBytes[i] = bytes;
        streamedRows[i] = occupied;
    }
    // Version 3's arrays, with the values the version-3 compiler gave.
    std::vector<Index> xValid(P), validRows(P, 0);
    std::vector<Index> rowUseful(R.rowIndex.size());
    for (size_t i = 0; i < P; ++i)
        xValid[i] = std::min<Index>(s.omega,
                                    p.a.cols() - s.blockCol[i] * s.omega);
    for (size_t rr = 0; rr < rowUseful.size(); ++rr)
        rowUseful[rr] = Index(std::count_if(
            R.values.begin() + std::ptrdiff_t(rr * s.omega),
            R.values.begin() + std::ptrdiff_t((rr + 1) * s.omega),
            [](Value v) { return v != 0.0; }));

    // One slot's keys, then its schedule record in @p version's layout.
    auto legacyBody = [&](uint32_t version) {
        std::ostringstream out;
        bio::writePod<uint32_t>(out, 1); // schedule count
        for (uint64_t key : {p.ld.contentHash(), p.table.contentHash(),
                             uint64_t(P), uint64_t(p.ld.blocks().size()),
                             uint64_t(p.ld.stream().size())})
            bio::writePod<uint64_t>(out, key);
        bio::writePod<uint8_t>(out, uint8_t(s.kernel));
        bio::writePod<uint32_t>(out, s.omega);
        bio::writePod<uint32_t>(out, 0x5C4ED001); // schedule tag
        bio::writePod<uint8_t>(out, uint8_t(s.kernel));
        bio::writePod<uint32_t>(out, s.omega);
        bio::writePod<uint64_t>(out, uint64_t(P));
        bio::writeVec(out, s.dp);
        bio::writeVec(out, s.blockRow);
        bio::writeVec(out, s.blockCol);
        bio::writeVec(out, s.operandVec);
        if (version <= 4) {
            bio::writeVec(out, cfgCycles);
            bio::writeVec(out, fillCycles);
            bio::writeVec(out, writeOutRow);
            bio::writeVec(out, streamCycles);
            bio::writeVec(out, memCycles);
            bio::writeVec(out, streamBytes);
            bio::writeVec(out, streamedRows);
            bio::writeVec(out, spmmMemCycles);
        }
        if (version <= 3)
            bio::writeVec(out, xValid);
        bio::writeVec(out, s.xOff);
        if (version <= 3)
            bio::writeVec(out, validRows);
        if (version <= 4)
            bio::writeVec(out, chainCycles);
        bio::writeVec(out, R.rowBegin);
        bio::writeVec(out, R.rowIndex);
        if (version <= 3)
            bio::writeVec(out, rowUseful);
        bio::writeVec(out, R.values);
        bio::writeVec(out, s.groupBegin);
        bio::writePod<uint8_t>(out, s.parallelSafe ? 1 : 0);
        if (version <= 2) {
            bio::writeVec(out, std::vector<size_t>{0, P / 2, P});
            bio::writeVec(out, std::vector<size_t>{}); // no levels in SpMV
        }
        bio::writePod<uint8_t>(out, s.contiguousRows ? 1 : 0);
        if (version <= 4)
            bio::writePod<int64_t>(out, curRow); // finalOutRow
        bio::writePod<uint8_t>(out, uint8_t(s.lastDp));
        if (version <= 4) // reconfiguration count and stall
            for (double v : {0.0, 0.0})
                bio::writePod<double>(out, v);
        for (double v : {s.parFlops, s.seqFlops, s.usefulBytes,
                         s.fcuOps.alu, s.fcuOps.reduce, s.fcuOps.mul,
                         s.fcuOps.add, s.peOps})
            bio::writePod<double>(out, v);
        bio::writePod<uint64_t>(out, s.totalStreamBytes);
        // SpMM stream bytes: the occupied rows, as for SpMV.
        bio::writePod<uint64_t>(out, s.totalStreamBytes);
        bio::writePod<uint64_t>(out, uint64_t(s.paddedOperand));
        return out.str();
    };

    for (uint32_t version : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::stringstream old(reframe(file, legacyBody(version), version));
        Engine warm(params);
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

TEST(ScheduleCachePersistence, BlockColumnOtherThanItsOperandChunk)
{
    // Every blockCol at 2^30 with xOff left in range: a graph round
    // would index its frontier mask and per-chunk counts a gigabyte out.
    const std::string file = savedCache(48);
    std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kBlockCol);
    uint64_t n = 0;
    std::memcpy(&n, body.data() + at, sizeof(n));
    ASSERT_GT(n, 0u);
    const Index far = Index(1) << 30;
    for (uint64_t i = 0; i < n; ++i)
        std::memcpy(body.data() + at + 8 + i * sizeof(far), &far,
                    sizeof(far));
    expectRecompiled(reframe(file, body), 48);
}

TEST(ScheduleCachePersistence, DataPathItsKernelDoesNotRun)
{
    // An SpMV schedule whose paths claim D-PR: each would read an
    // out-degree chunk no SpMV stages.
    const std::string file = savedCache(49);
    std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kDp);
    uint64_t n = 0;
    std::memcpy(&n, body.data() + at, sizeof(n));
    ASSERT_GT(n, 0u);
    std::memset(body.data() + at + 8, int(DataPathType::DPr), n);
    expectRecompiled(reframe(file, body), 49);
}

TEST(ScheduleCachePersistence, SweepGroupNotItsGemvsThenOneChain)
{
    // A forward sweep's block-row groups, spliced two ways that pass
    // every per-path check: the first two groups merged (one group with
    // two chains over two block rows), and the first group split after
    // its first GEMV (a group with no chain).  The sweep kernel would
    // run either as one block row, so the loader must refuse both.
    Rng rng(50);
    const CsrMatrix a = gen::banded(73, 5, 0.7, rng);
    const LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    const ConfigTable fwd =
        ConfigTable::convert(KernelType::SymGS, ld, true, GsSweep::Forward);
    Engine saver(makeParams());
    saver.program(&ld, &fwd);
    saver.prepareSchedule();
    std::stringstream saved;
    ASSERT_TRUE(saver.saveScheduleCache(saved));
    const std::string file = saved.str();
    const std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kGroupBegin);
    const std::vector<size_t> groups = vecAt<size_t>(body, at);
    ASSERT_GT(groups.size(), 3u);
    ASSERT_GT(groups[1], 1u) << "the first block row has a GEMV";

    std::vector<size_t> merged = groups, split = groups;
    merged.erase(merged.begin() + 1);
    split.insert(split.begin() + 1, 1);
    for (const std::vector<size_t> &g : {merged, split}) {
        std::string spliced = body;
        spliced.replace(at, vecBytes(groups).size(), vecBytes(g));
        std::stringstream in(reframe(file, spliced));
        Engine warm(makeParams()), cold(makeParams());
        setLogCapture(true);
        EXPECT_FALSE(warm.loadScheduleCache(in));
        EXPECT_EQ(warm.restoredSchedules(), 0u);
        warm.program(&ld, &fwd);
        cold.program(&ld, &fwd);
        DenseVector b(a.rows(), 1.0), xw(a.rows(), 0.0), xc(a.rows(), 0.0);
        for (int run = 0; run < 2; ++run) {
            warm.runSymgsSweep(b, xw);
            cold.runSymgsSweep(b, xc);
            EXPECT_EQ(xw, xc);
        }
        const std::string log = setLogCapture(false);
        EXPECT_NE(log.find("schedule cache unusable"), std::string::npos)
            << log;
        EXPECT_EQ(warm.scheduleCompiles(), 1u);
        EXPECT_EQ(statDump(warm), statDump(cold));
    }
}

TEST(ScheduleCachePersistence, ParallelGroupsSharingABlockRow)
{
    // An SpMV schedule, which runs its groups in parallel, with its
    // first block row's paths split over two groups, and with its first
    // two block rows merged into one group.  Either way two groups
    // could write one output row at once, or one group two block rows.
    const std::string file = savedCache(56);
    const std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kGroupBegin);
    const std::vector<size_t> groups = vecAt<size_t>(body, at);
    ASSERT_GT(groups.size(), 3u);
    ASSERT_GT(groups[1], 1u) << "the first block row has two paths";

    std::vector<size_t> split = groups, merged = groups;
    split.insert(split.begin() + 1, 1);
    merged.erase(merged.begin() + 1);
    for (const std::vector<size_t> &g : {split, merged}) {
        std::string spliced = body;
        spliced.replace(at, vecBytes(groups).size(), vecBytes(g));
        expectRecompiled(reframe(file, spliced), 56);
    }
}

TEST(ScheduleCachePersistence, SweepLevelsDoNotDependOnThePool)
{
    // The level order is a pure function of the schedule's groups and
    // chunks: compiled on one thread or four, or restored, it is the
    // same.
    const CsrMatrix a = gen::stencil3d(16, 6, 5);
    const LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    ThreadPool one(1), four(4);
    for (GsSweep dir : {GsSweep::Forward, GsSweep::Backward}) {
        const ConfigTable t =
            ConfigTable::convert(KernelType::SymGS, ld, true, dir);
        const ExecSchedule s1 = compileSchedule(ld, t, makeParams(), &one);
        const ExecSchedule s4 = compileSchedule(ld, t, makeParams(), &four);
        EXPECT_EQ(s1.sweepOrder, s4.sweepOrder);
        EXPECT_EQ(s1.levelBegin, s4.levelBegin);
        EXPECT_EQ(s1.levelCount(), 1u + 2 * 5 + 4 * 4 + 1);

        std::stringstream ss;
        serializeRowStore(ss, *s1.rows);
        serializeSchedule(ss, s1);
        auto rows = std::make_shared<const RowStore>(deserializeRowStore(ss));
        const ExecSchedule back = deserializeSchedule(ss, rows);
        EXPECT_EQ(back.sweepOrder, s1.sweepOrder);
        EXPECT_EQ(back.levelBegin, s1.levelBegin);
    }
}

TEST(ScheduleCachePersistence, SweepOperandChunkOutsideTheStagedOperand)
{
    // A forward sweep whose first GEMV reads the chunk just past the
    // staged operand, its block column and xOff spliced to agree: the
    // loader's range check must refuse it before the level derivation
    // indexes its per-chunk arrays with it.
    Rng rng(57);
    const CsrMatrix a = gen::banded(73, 5, 0.7, rng);
    const LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    const ConfigTable fwd =
        ConfigTable::convert(KernelType::SymGS, ld, true, GsSweep::Forward);
    Engine saver(makeParams());
    saver.program(&ld, &fwd);
    const ExecSchedule *s = saver.prepareSchedule();
    ASSERT_EQ(s->dp[0], DataPathType::Gemv);
    const Index outside = Index(s->paddedOperand / s->omega);
    std::stringstream saved;
    ASSERT_TRUE(saver.saveScheduleCache(saved));
    const std::string file = saved.str();
    std::string body = file.substr(kCacheHeader);
    const uint32_t xOff = outside * 8;
    std::memcpy(body.data() + vectorAt(body, kBlockCol) + 8, &outside,
                sizeof(outside));
    std::memcpy(body.data() + vectorAt(body, kXOff) + 8, &xOff,
                sizeof(xOff));

    std::stringstream in(reframe(file, body));
    Engine warm(makeParams()), cold(makeParams());
    setLogCapture(true);
    EXPECT_FALSE(warm.loadScheduleCache(in));
    const std::string log = setLogCapture(false);
    EXPECT_NE(log.find("schedule cache unusable"), std::string::npos)
        << log;
    EXPECT_EQ(warm.restoredSchedules(), 0u);
    warm.program(&ld, &fwd);
    cold.program(&ld, &fwd);
    DenseVector b(a.rows(), 1.0), xw(a.rows(), 0.0), xc(a.rows(), 0.0);
    warm.runSymgsSweep(b, xw);
    cold.runSymgsSweep(b, xc);
    EXPECT_EQ(xw, xc);
    EXPECT_EQ(warm.scheduleCompiles(), 1u);
}

TEST(ScheduleCompileDeath, UnreorderedSweepPanics)
{
    // The reordering ablation's table visits a block row's blocks in
    // column order, its chain among its GEMVs: no sweep can replay it.
    Rng rng(51);
    const CsrMatrix a = gen::banded(73, 5, 0.7, rng);
    const LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    const ConfigTable natural =
        ConfigTable::convert(KernelType::SymGS, ld, false, GsSweep::Forward);
    EXPECT_DEATH(compileSchedule(ld, natural, makeParams()),
                 "only reordered SymGS tables");
}

TEST(ScheduleCachePersistence, PerPathArrayShorterThanThePaths)
{
    // blockCol cut to a single entry: every walk would read past it.
    const std::string file = savedCache(47);
    std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kBlockCol);
    const size_t end = vectorAt(body, kOperandVec);
    body.replace(at, end - at, vecBytes(std::vector<Index>{1}));
    expectRecompiled(reframe(file, body), 47);
}

TEST(ScheduleCachePersistence, PathWithMoreRecordsThanItsBlockHasRows)
{
    // The first path holds omega + 1 records of its first row, and
    // contiguousRows is cleared so that every record passes the
    // live-matrix check.  The timing walk indexes its per-row-count
    // stream terms (omega + 1 of them) with a path's record count.
    const Index omega = makeParams().omega;
    const std::string file = savedCache(53);
    std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kRowBegin);
    std::vector<size_t> rowBegin = vecAt<size_t>(body, at);
    std::vector<Index> rowIndex =
        vecAt<Index>(body, vectorAt(body, kRowIndex));
    std::vector<Value> values = vecAt<Value>(body, vectorAt(body, kValues));
    const size_t storeEnd =
        vectorAt(body, kValues) + vecBytes(values).size();
    ASSERT_GT(rowBegin.size(), 1u);
    ASSERT_GT(rowBegin[1], 0u);
    const size_t extra = size_t(omega) + 1 - rowBegin[1];
    rowIndex.insert(rowIndex.begin(), extra, rowIndex[0]);
    const std::vector<Value> first(values.begin(), values.begin() + omega);
    for (size_t k = 0; k < extra; ++k)
        values.insert(values.begin(), first.begin(), first.end());
    for (size_t i = 1; i < rowBegin.size(); ++i)
        rowBegin[i] += extra;
    body.replace(at, storeEnd - at,
                 vecBytes(rowBegin) + vecBytes(rowIndex) + vecBytes(values));
    // After the group ranges: parallelSafe, then contiguousRows (u8).
    const size_t groups = vectorAt(body, kGroupBegin);
    uint64_t n = 0;
    std::memcpy(&n, body.data() + groups, sizeof(n));
    body[groups + sizeof(n) + n * sizeof(size_t) + 1] = 0;
    expectRecompiled(reframe(file, body), 53);
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

TEST(ScheduleCachePersistence, RowStoreShorterThanItsSchedule)
{
    // The store drops its last path, records and all: consistent on its
    // own, but one path short of the schedule that names it.
    const Index omega = makeParams().omega;
    const std::string file = savedCache(54);
    std::string body = file.substr(kCacheHeader);
    const size_t at = vectorAt(body, kRowBegin);
    std::vector<size_t> rowBegin = vecAt<size_t>(body, at);
    std::vector<Index> rowIndex =
        vecAt<Index>(body, vectorAt(body, kRowIndex));
    std::vector<Value> values = vecAt<Value>(body, vectorAt(body, kValues));
    const size_t storeEnd =
        vectorAt(body, kValues) + vecBytes(values).size();
    ASSERT_GT(rowBegin.size(), 2u);
    rowBegin.pop_back();
    rowIndex.resize(rowBegin.back());
    values.resize(rowBegin.back() * omega);
    body.replace(at, storeEnd - at,
                 vecBytes(rowBegin) + vecBytes(rowIndex) + vecBytes(values));
    expectRecompiled(reframe(file, body), 54);
}

TEST(ScheduleCachePersistence, ScheduleNamingAMissingStore)
{
    // The one schedule names store 1 of a file holding one store.
    const std::string file = savedCache(55);
    std::string body = file.substr(kCacheHeader);
    // The store index (u32) sits right before the schedule's tag (u32),
    // kernel (u8), omega (u32) and path count (u64).
    const size_t index = vectorAt(body, kDp) - (4 + 1 + 4 + 8) - 4;
    uint32_t store = 0;
    std::memcpy(&store, body.data() + index, sizeof(store));
    ASSERT_EQ(store, 0u);
    store = 1;
    std::memcpy(body.data() + index, &store, sizeof(store));
    expectRecompiled(reframe(file, body), 55);
}

TEST(ScheduleCachePersistence, BytesAfterTheLastSchedule)
{
    const std::string file = savedCache(48);
    std::string body = file.substr(kCacheHeader) + std::string(8, '\0');
    expectRecompiled(reframe(file, body), 48);
}

TEST(ScheduleCachePersistence, ParamsFingerprintMismatchRejected)
{
    // A different omega reshapes every schedule, and skipping empty
    // rows decides which row records exist: the fingerprint gate
    // rejects the whole file and the engine recompiles.
    AccelParams wider = makeParams(4);
    AccelParams unskipped = makeParams(8);
    unskipped.skipEmptyBlockRows = false;
    for (const AccelParams &other : {wider, unskipped}) {
        std::stringstream ss(savedCache(51));
        Engine warm(other);
        setLogCapture(true);
        EXPECT_FALSE(warm.loadScheduleCache(ss));
        std::string log = setLogCapture(false);
        EXPECT_NE(log.find("different accelerator parameters"),
                  std::string::npos)
            << log;
        EXPECT_EQ(warm.restoredSchedules(), 0u);
        EXPECT_NE(scheduleParamsFingerprint(makeParams(8)),
                  scheduleParamsFingerprint(other));
    }
}

TEST(ScheduleCachePersistence, TimingParamsDoNotInvalidateTheCache)
{
    // A schedule holds no timing term, so a cache saved under the
    // default parameters restores under other latencies, bandwidth,
    // clock, cache geometry and switch cost with zero compiles, and
    // every run then matches a cold engine under those parameters.
    CsrMatrix a = gen::stencil2d(9, 9);
    DenseVector x(a.cols()), b(a.rows(), 1.0);
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 5) - 2.0;
    Accelerator saver(makeParams());
    saver.loadPde(a);
    DenseVector x0(a.rows(), 0.0);
    saver.spmv(x);
    saver.symgsSweep(b, x0, GsSweep::Symmetric);
    std::stringstream saved;
    ASSERT_TRUE(saver.engine().saveScheduleCache(saved));

    AccelParams timing = makeParams();
    timing.clockGhz = 1.75;
    timing.memBandwidthGBs = 72.0;
    timing.dramLatency = 120;
    timing.cacheBytes = 512;
    timing.cacheLineBytes = 32;
    timing.cacheLatency = 6;
    timing.aluLatency = 5;
    timing.reSumLatency = 2;
    timing.peLatency = 4;
    timing.configCycles = 40;
    ASSERT_EQ(scheduleParamsFingerprint(timing),
              scheduleParamsFingerprint(makeParams()));

    Accelerator warm(timing), cold(timing);
    warm.loadPde(a);
    cold.loadPde(a);
    ASSERT_TRUE(warm.engine().loadScheduleCache(saved));
    EXPECT_EQ(warm.engine().restoredSchedules(), 3u);

    std::vector<DenseVector> xs(4, x);
    for (size_t j = 0; j < xs.size(); ++j)
        xs[j][j] += 1.0;
    auto runAll = [&](Accelerator &acc) {
        Engine &e = acc.engine();
        std::vector<RunTiming> timings;
        RunTiming t;
        e.program(&acc.matrix(), &acc.table(KernelType::SpMV));
        DenseVector y = e.runSpmv(x, &t);
        timings.push_back(t);
        std::vector<DenseVector> ys = e.runSpmm(xs, &t);
        timings.push_back(t);
        DenseVector xg(a.rows(), 0.0);
        for (GsSweep dir : {GsSweep::Forward, GsSweep::Backward}) {
            e.program(&acc.matrix(), &acc.table(KernelType::SymGS, dir));
            e.runSymgsSweep(b, xg, &t);
            timings.push_back(t);
        }
        ys.push_back(y);
        ys.push_back(xg);
        return std::make_pair(ys, timings);
    };
    const auto [warmOut, warmTimes] = runAll(warm);
    const auto [coldOut, coldTimes] = runAll(cold);
    EXPECT_EQ(warm.engine().scheduleCompiles(), 0u);
    EXPECT_EQ(cold.engine().scheduleCompiles(), 3u);
    EXPECT_EQ(warmOut, coldOut);
    ASSERT_EQ(warmTimes.size(), coldTimes.size());
    for (size_t i = 0; i < warmTimes.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        EXPECT_EQ(warmTimes[i].cycles, coldTimes[i].cycles);
        EXPECT_EQ(warmTimes[i].seqCycles, coldTimes[i].seqCycles);
        EXPECT_EQ(warmTimes[i].parCycles, coldTimes[i].parCycles);
    }
    EXPECT_EQ(statDump(warm.engine()), statDump(cold.engine()));
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
