#include "alrescha/sim/schedule.hh"

#include <algorithm>
#include <utility>

#include "alrescha/sim/replay.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace alr {

namespace {

/**
 * Paths per chunk of the parallel compile passes.  A constant, not a
 * function of the pool size, so every pool walks the same chunks.
 */
constexpr size_t kCompileChunkPaths = 1024;

/** The bytes @p v holds, not its capacity: a compiled schedule and its
 *  restored copy then report the same footprint. */
template <typename V>
size_t
vecBytes(const V &v)
{
    return v.size() * sizeof(v[0]);
}

} // namespace

size_t
RowStore::bytes() const
{
    return vecBytes(rowBegin) + vecBytes(rowIndex) + vecBytes(values);
}

size_t
ExecSchedule::bytes() const
{
    return vecBytes(dp) + vecBytes(blockRow) + vecBytes(blockCol) +
           vecBytes(operandVec) + vecBytes(xOff) + vecBytes(groupBegin) +
           vecBytes(groupStore) + vecBytes(sweepOrder) +
           vecBytes(levelBegin) +
           (countsRows && rows ? rows->bytes() : 0);
}

bool
tallySweepGroups(ExecSchedule &s)
{
    s.linkPushes = s.linkPeak = 0;
    s.sweepOrder.clear();
    s.levelBegin.clear();
    if (s.kernel != KernelType::SymGS)
        return true;
    const size_t groups = s.groupCount();
    // Per x chunk, the highest level (1-based; 0 = none yet) of a group
    // that read it and of the group that last wrote it.
    const size_t chunks = s.paddedOperand / s.omega;
    std::vector<size_t> lastReader(chunks, 0), lastWriter(chunks, 0);
    std::vector<size_t> level(groups);
    size_t levels = 0;
    for (size_t g = 0; g < groups; ++g) {
        const size_t first = s.groupBegin[g];
        const size_t end = s.groupBegin[g + 1];
        if (end == first || s.dp[end - 1] != DataPathType::DSymgs)
            return false;
        const size_t chain = end - 1;
        for (size_t i = first; i < chain; ++i)
            if (s.dp[i] != DataPathType::Gemv)
                return false;
        s.linkPushes += chain - first;
        s.linkPeak = std::max<uint64_t>(s.linkPeak, chain - first);

        // Read after write on every chunk the GEMVs read; write after
        // read and write after write on the chunk the chain writes.
        const size_t written = s.xOff[chain] / s.omega;
        size_t l = std::max(lastReader[written], lastWriter[written]);
        for (size_t i = first; i < chain; ++i)
            l = std::max(l, lastWriter[s.xOff[i] / s.omega]);
        level[g] = ++l;
        for (size_t i = first; i < chain; ++i) {
            size_t &r = lastReader[s.xOff[i] / s.omega];
            r = std::max(r, l);
        }
        lastWriter[written] = l;
        levels = std::max(levels, l);
    }

    // A stable counting sort by level: levelBegin[l] counts the groups
    // below level l + 1, and each level keeps its groups ascending.
    s.levelBegin.assign(levels + 1, 0);
    for (size_t g = 0; g < groups; ++g)
        ++s.levelBegin[level[g]];
    for (size_t l = 0; l < levels; ++l)
        s.levelBegin[l + 1] += s.levelBegin[l];
    std::vector<size_t> next(s.levelBegin.begin(), s.levelBegin.end() - 1);
    s.sweepOrder.resize(groups);
    for (size_t g = 0; g < groups; ++g)
        s.sweepOrder[next[level[g] - 1]++] = g;
    return true;
}

ExecSchedule
compileSchedule(const LocallyDenseMatrix &ld, const ConfigTable &table,
                const AccelParams &params, ThreadPool *pool,
                std::shared_ptr<const RowStore> shared)
{
    ALR_ASSERT(ld.omega() == table.omega(), "omega mismatch");

    const Index omega = params.omega;
    const Index rows = ld.rows();
    const Index cols = ld.cols();
    // Every table but SymGS's is GEMV-class: one data path per block
    // (GEMV, D-BFS, D-SSSP or D-PR) over the x^t operand.
    const bool gemv = table.kernel() != KernelType::SymGS;
    const bool reversed = !gemv && table.direction() == GsSweep::Backward;
    const bool skipEmpty = params.skipEmptyBlockRows;
    const std::vector<ConfigEntry> &entries = table.entries();
    const std::vector<LdBlockInfo> &blocks = ld.blocks();
    const Value *stream = ld.stream().data();
    const DenseVector &diag = ld.diagonal();

    ExecSchedule s;
    s.kernel = table.kernel();
    s.omega = omega;
    s.pathCount = entries.size();

    const size_t P = s.pathCount;
    ALR_ASSERT(P == blocks.size(),
               "a %s table must visit each of the %zu stored blocks once",
               toString(table.kernel()), blocks.size());
    s.dp.resize(P);
    s.blockRow.resize(P);
    s.blockCol.resize(P);
    s.operandVec.resize(P, CacheVec::Xt);
    s.xOff.resize(P, 0);

    // Pass 1, serial: each path's static geometry, and whether block
    // rows never decrease.  Nothing here reads the payload.
    bool monotonic = true;
    for (size_t i = 0; i < P; ++i) {
        const ConfigEntry &e = entries[i];
        ALR_ASSERT(e.blockId < P, "table entry %zu names no stored block",
                   i);
        const LdBlockInfo &blk = blocks[e.blockId];
        s.dp[i] = e.dp;
        s.blockRow[i] = blk.blockRow;
        s.blockCol[i] = blk.blockCol;
        if (i > 0 && blk.blockRow < s.blockRow[i - 1])
            monotonic = false;

        if (gemv || e.dp != DataPathType::DSymgs) {
            ALR_ASSERT(e.dp == (gemv ? kernelDataPath(table.kernel())
                                     : DataPathType::Gemv),
                       "unexpected data path in %s table",
                       toString(table.kernel()));
            s.operandVec[i] = gemv || e.op == OperandPort::Port1
                                  ? CacheVec::Xt
                                  : CacheVec::Xprev;
            s.xOff[i] = blk.blockCol * omega;
        } else {
            // D-SymGS: the serialized diagonal chain gathers the block
            // row's own chunk, stepping through every row the store
            // records for a SymGs-layout diagonal block.
            ALR_ASSERT(ld.layout() == LdLayout::SymGs && blk.isDiagonal(),
                       "a D-SymGS chain needs a SymGs-layout diagonal block");
            s.xOff[i] = blk.blockRow * omega;
        }
    }

    // Block-row groups: maximal runs of paths sharing a block row.
    // When block rows never decrease, each output row belongs to
    // exactly one group, so groups may execute in parallel.
    s.groupBegin.push_back(0);
    for (size_t i = 1; i < P; ++i) {
        if (s.blockRow[i] != s.blockRow[i - 1])
            s.groupBegin.push_back(i);
    }
    if (P > 0)
        s.groupBegin.push_back(P);
    s.parallelSafe = gemv && monotonic;

    // The staged operand covers a GEMV-class operand (cols entries) or
    // the SymGS iterate (rows entries), rounded up to whole chunks.
    Index operandLen = gemv ? cols : std::max(rows, cols);
    s.paddedOperand =
        size_t((operandLen + omega - 1) / omega) * omega;
    ALR_ASSERT(tallySweepGroups(s),
               "a SymGS block row is not its GEMVs followed by one D-SymGS "
               "chain: only reordered SymGS tables are executable");

    // The store order: path i is block i, or -- a backward sweep --
    // group g is the run of blocks at groupStore[g], the runs taken
    // from the last group back, so they tile blocks() in reverse.
    const size_t groups = s.groupCount();
    if (reversed) {
        s.groupStore.resize(groups);
        size_t at = 0;
        for (size_t g = groups; g-- > 0;) {
            s.groupStore[g] = at;
            at += s.groupBegin[g + 1] - s.groupBegin[g];
        }
    }
    for (size_t g = 0; g < groups; ++g)
        for (size_t i = s.groupBegin[g]; i < s.groupBegin[g + 1]; ++i)
            ALR_ASSERT(entries[i].blockId ==
                           s.groupFirst(g) + (i - s.groupBegin[g]),
                       "the %s table does not visit the stored blocks in "
                       "store order",
                       toString(table.kernel()));

    // The payload passes run over fixed chunks of paths: the
    // decomposition is a pure function of P, never of the pool size.
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    const size_t chunks = (P + kCompileChunkPaths - 1) / kCompileChunkPaths;
    auto chunkPaths = [&](size_t c) {
        return std::pair<size_t, size_t>(
            c * kCompileChunkPaths,
            std::min(P, (c + 1) * kCompileChunkPaths));
    };

    // The omega x omega payload-position LUT of a block's ordering case,
    // and logical element (lr, lc) of the block through it.
    auto lutOf = [&](const LdBlockInfo &blk) {
        const bool diagBlk =
            ld.layout() == LdLayout::SymGs && blk.isDiagonal();
        return ld.payloadLut(diagBlk, blk.blockCol > blk.blockRow);
    };
    auto element = [&](const LdBlockInfo &blk, const int32_t *lut, Index lr,
                       Index lc) {
        int32_t pos = lut[size_t(lr) * omega + lc];
        return pos >= 0 ? stream[blk.offset + size_t(pos)]
                        : diag[blk.blockRow * omega + lr];
    };
    auto occupiedRow = [&](const LdBlockInfo &blk, const int32_t *lut,
                           Index lr) {
        for (Index lc = 0; lc < omega; ++lc)
            if (element(blk, lut, lr, lc) != 0.0)
                return true;
        return false;
    };

    // The row records: another schedule's store of this matrix, or one
    // this schedule gathers (and counts).  occupied[j * omega + lr]
    // says whether row lr of block j holds a non-zero, when empty rows
    // are skipped.
    std::shared_ptr<RowStore> built;
    std::unique_ptr<uint8_t[]> occupied;
    if (shared) {
        ALR_ASSERT(shared->omega == omega && shared->paths() == P,
                   "row store does not serve this matrix");
        s.rows = std::move(shared);
    } else {
        built = std::make_shared<RowStore>();
        built->omega = omega;
        built->rowBegin.resize(P + 1, 0);

        // Pass 2, parallel over blocks: occupied rows per block.  A
        // SymGs-layout diagonal block records every row inside the
        // matrix, as its chain steps through them; any other block
        // every row inside it, less the all-zero ones when they are
        // skipped, which it marks so the gather never reads them again.
        if (skipEmpty)
            occupied = std::make_unique_for_overwrite<uint8_t[]>(P * omega);
        tp.parallelFor(0, chunks, [&](size_t c) {
            auto [lo, hi] = chunkPaths(c);
            for (size_t j = lo; j < hi; ++j) {
                const LdBlockInfo &blk = blocks[j];
                Index inside = Index(std::clamp<int64_t>(
                    int64_t(rows) - int64_t(blk.blockRow) * omega, 0,
                    omega));
                if (!skipEmpty ||
                    (ld.layout() == LdLayout::SymGs && blk.isDiagonal())) {
                    if (skipEmpty)
                        std::fill_n(occupied.get() + j * omega, omega, 1);
                    built->rowBegin[j + 1] = inside;
                    continue;
                }
                const int32_t *lut = lutOf(blk);
                uint8_t *occ = occupied.get() + j * omega;
                Index count = 0;
                for (Index lr = 0; lr < inside; ++lr)
                    count += occ[lr] = occupiedRow(blk, lut, lr);
                built->rowBegin[j + 1] = count;
            }
        });

        // Pass 3, serial: the prefix sum gives every block its row
        // slots, so the row arrays are sized exactly, once.
        for (size_t j = 0; j < P; ++j)
            built->rowBegin[j + 1] += built->rowBegin[j];
        const size_t records = built->rowBegin[P];
        built->rowIndex.resize(records);
        built->values.resize(records * omega);
        s.rows = built;
        s.countsRows = true;
    }
    const RowStore &R = *s.rows;

    // Gather block j's rows, ascending, into its own slots of the store
    // being built, with every logical value, the diagonal included.
    // Each kept row is read once; pass 2 already found the skipped ones
    // empty.
    auto gather = [&](size_t j) {
        const LdBlockInfo &blk = blocks[j];
        const int32_t *lut = lutOf(blk);
        size_t slot = built->rowBegin[j];
        for (Index lr = 0; lr < omega; ++lr) {
            const Index r = blk.blockRow * omega + lr;
            // Test before writing: a skipped last row must not touch
            // the next block's first slot.
            if (r >= rows || (skipEmpty && !occupied[j * omega + lr]))
                continue;
            ALR_ASSERT(slot < built->rowBegin[j + 1],
                       "row count pass disagrees");
            Value *dst = built->values.data() + slot * omega;
            for (Index lc = 0; lc < omega; ++lc)
                dst[lc] = element(blk, lut, lr, lc);
            built->rowIndex[slot] = r;
            ++slot;
        }
        ALR_ASSERT(slot == built->rowBegin[j + 1], "row count pass disagrees");
    };

    // Pass 4, parallel: gather each path's block when the store is new
    // (every block once, since the table visits each once), then tally
    // the per-run stat totals from its records, with per-chunk
    // partials.  Every partial is an integer-valued double far below
    // 2^53, so their sum is exact and equals the serial accumulation in
    // any order.
    struct Partial
    {
        double parFlops = 0.0;
        double seqFlops = 0.0;
        double usefulBytes = 0.0;
        double peOps = 0.0;
        double rowOps = 0.0; ///< FCU mul = alu = reduce ops
        uint64_t streamBytes = 0;
    };
    std::vector<Partial> partials(chunks);
    tp.parallelFor(0, chunks, [&](size_t c) {
        auto [lo, hi] = chunkPaths(c);
        Partial &acc = partials[c];
        for (size_t i = lo; i < hi; ++i) {
            const size_t j = entries[i].blockId;
            if (built)
                gather(j);
            const LdBlockInfo &blk = blocks[j];
            const Index r0 = blk.blockRow * omega;
            const size_t begin = R.rowBegin[j];
            const size_t end = R.rowBegin[j + 1];
            const bool chain = !gemv && s.dp[i] == DataPathType::DSymgs;
            if (!chain) {
                // A skipping run streams the occupied rows, any other
                // the whole block payload.
                acc.streamBytes +=
                    skipEmpty ? uint64_t(end - begin) * omega * sizeof(Value)
                              : uint64_t(blk.size) * sizeof(Value);
            } else {
                // The block payload, plus the b operand through its
                // FIFO: one useful double per chain record.
                acc.streamBytes +=
                    (uint64_t(blk.size) + end - begin) * sizeof(Value);
                acc.usefulBytes += double(end - begin) * sizeof(Value);
            }
            for (size_t rr = begin; rr < end; ++rr) {
                const Value *v = R.values.data() + rr * omega;
                Index useful = 0;
                for (Index lc = 0; lc < omega; ++lc)
                    useful += v[lc] != 0.0;
                // A chain masks its diagonal lane when it replays.
                if (chain)
                    useful -= v[R.rowIndex[rr] - r0] != 0.0;
                acc.rowOps += double(omega);
                if (!chain) {
                    acc.parFlops += 2.0 * useful;
                    acc.usefulBytes += double(useful) * sizeof(Value);
                } else {
                    acc.peOps += 2.0;
                    acc.seqFlops += 2.0 * useful + 2.0;
                    acc.usefulBytes += double(useful + 2) * sizeof(Value);
                }
            }
        }
    });
    for (const Partial &acc : partials) {
        s.parFlops += acc.parFlops;
        s.seqFlops += acc.seqFlops;
        s.usefulBytes += acc.usefulBytes;
        s.peOps += acc.peOps;
        s.fcuOps.mul += acc.rowOps;
        s.fcuOps.alu += acc.rowOps;
        s.fcuOps.reduce += acc.rowOps;
        s.totalStreamBytes += acc.streamBytes;
    }

    // Stamp the replay entry points: runtime ISA dispatch happens
    // here, once per compiled schedule, so the engine's hot loops
    // call fully resolved kernels.
    replay::specialize(s, params);
    return s;
}

} // namespace alr
