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

} // namespace

size_t
ExecSchedule::bytes() const
{
    auto vecBytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return vecBytes(dp) + vecBytes(blockRow) + vecBytes(blockCol) +
           vecBytes(operandVec) + vecBytes(xOff) + vecBytes(rowBegin) +
           vecBytes(rowIndex) + vecBytes(values) + vecBytes(groupBegin);
}

ExecSchedule
compileSchedule(const LocallyDenseMatrix &ld, const ConfigTable &table,
                const AccelParams &params, ThreadPool *pool)
{
    ALR_ASSERT(table.kernel() == KernelType::SpMV ||
                   table.kernel() == KernelType::SymGS,
               "only SpMV and SymGS tables are schedulable");
    ALR_ASSERT(ld.omega() == table.omega(), "omega mismatch");

    const Index omega = params.omega;
    const Index rows = ld.rows();
    const Index cols = ld.cols();
    const bool spmv = table.kernel() == KernelType::SpMV;
    const bool backward = table.direction() == GsSweep::Backward;
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
    s.dp.resize(P);
    s.blockRow.resize(P);
    s.blockCol.resize(P);
    s.operandVec.resize(P, CacheVec::Xt);
    s.xOff.resize(P, 0);
    s.rowBegin.resize(P + 1, 0);

    // Pass 1, serial: each path's static geometry, and whether block
    // rows never decrease.  Nothing here reads the payload.
    bool monotonic = true;
    for (size_t i = 0; i < P; ++i) {
        const ConfigEntry &e = entries[i];
        const LdBlockInfo &blk = blocks[e.blockId];
        s.dp[i] = e.dp;
        s.blockRow[i] = blk.blockRow;
        s.blockCol[i] = blk.blockCol;
        if (i > 0 && blk.blockRow < s.blockRow[i - 1])
            monotonic = false;

        if (spmv || e.dp != DataPathType::DSymgs) {
            ALR_ASSERT(e.dp == DataPathType::Gemv,
                       "unexpected data path in %s table",
                       toString(table.kernel()));
            s.operandVec[i] = spmv || e.op == OperandPort::Port1
                                  ? CacheVec::Xt
                                  : CacheVec::Xprev;
            s.xOff[i] = blk.blockCol * omega;
        } else {
            // D-SymGS: the serialized diagonal chain gathers the block
            // row's own chunk.
            s.xOff[i] = blk.blockRow * omega;
        }
    }

    // The payload passes run over fixed chunks of paths: the
    // decomposition is a pure function of P, never of the pool size.
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    const size_t chunks = (P + kCompileChunkPaths - 1) / kCompileChunkPaths;
    auto chunkPaths = [&](size_t c) {
        return std::pair<size_t, size_t>(
            c * kCompileChunkPaths,
            std::min(P, (c + 1) * kCompileChunkPaths));
    };
    auto isChain = [&](size_t i) {
        return !spmv && s.dp[i] == DataPathType::DSymgs;
    };
    // The omega x omega payload-position LUT of a block's ordering
    // case, and logical element (lr, lc) of the block through it.
    auto lutOf = [&](const LdBlockInfo &blk) {
        const bool diagBlk =
            ld.layout() == LdLayout::SymGs && blk.isDiagonal();
        return ld.payloadLut(diagBlk, blk.blockCol > blk.blockRow);
    };
    auto element = [&](const LdBlockInfo &blk, const int32_t *lut,
                       Index lr, Index lc) {
        int32_t pos = lut[size_t(lr) * omega + lc];
        return pos >= 0 ? stream[blk.offset + size_t(pos)]
                        : diag[blk.blockRow * omega + lr];
    };

    // Pass 2, parallel: occupied rows per path.  A chain records every
    // step inside the matrix; a GEMV every row inside it, less the
    // all-zero ones when they are skipped.
    tp.parallelFor(0, chunks, [&](size_t c) {
        auto [lo, hi] = chunkPaths(c);
        for (size_t i = lo; i < hi; ++i) {
            const LdBlockInfo &blk = blocks[entries[i].blockId];
            Index inside = Index(std::clamp<int64_t>(
                int64_t(rows) - int64_t(blk.blockRow) * omega, 0, omega));
            if (isChain(i) || !skipEmpty) {
                s.rowBegin[i + 1] = inside;
                continue;
            }
            const int32_t *lut = lutOf(blk);
            Index occupied = 0;
            for (Index lr = 0; lr < inside; ++lr) {
                for (Index lc = 0; lc < omega; ++lc) {
                    if (element(blk, lut, lr, lc) != 0.0) {
                        ++occupied;
                        break;
                    }
                }
            }
            s.rowBegin[i + 1] = occupied;
        }
    });

    // Pass 3, serial: the prefix sum gives every path its row slots,
    // so the row arrays are sized exactly, once.
    for (size_t i = 0; i < P; ++i)
        s.rowBegin[i + 1] += s.rowBegin[i];
    const size_t records = s.rowBegin[P];
    s.rowIndex.resize(records);
    s.values.resize(records * omega);

    // Pass 4, parallel: gather each path's rows into its own slots,
    // with per-chunk stat partials.  Every partial is an integer-valued
    // double far below 2^53, so their sum is exact and equals the
    // serial accumulation in any order.
    struct Partial
    {
        double parFlops = 0.0;
        double seqFlops = 0.0;
        double usefulBytes = 0.0;
        double peOps = 0.0;
        double rowOps = 0.0; ///< FCU mul = alu = reduce ops
        uint64_t streamBytes = 0;
        uint64_t spmmBytes = 0;
        bool contiguous = true;
    };
    std::vector<Partial> partials(chunks);
    tp.parallelFor(0, chunks, [&](size_t c) {
        auto [lo, hi] = chunkPaths(c);
        Partial &acc = partials[c];
        for (size_t i = lo; i < hi; ++i) {
            const LdBlockInfo &blk = blocks[entries[i].blockId];
            const int32_t *lut = lutOf(blk);
            const Index r0 = blk.blockRow * omega;
            size_t slot = s.rowBegin[i];
            const size_t end = s.rowBegin[i + 1];

            if (!isChain(i)) {
                for (Index lr = 0; lr < omega; ++lr) {
                    Index r = r0 + lr;
                    if (r >= rows)
                        break;
                    Index useful = 0;
                    for (Index lc = 0; lc < omega; ++lc)
                        useful += element(blk, lut, lr, lc) != 0.0;
                    // Test before writing: a skipped last row must not
                    // touch the next path's first slot.
                    if (useful == 0 && skipEmpty)
                        continue;
                    ALR_ASSERT(slot < end, "row count pass disagrees");
                    Value *dst = s.values.data() + slot * omega;
                    for (Index lc = 0; lc < omega; ++lc)
                        dst[lc] = element(blk, lut, lr, lc);
                    if (slot > s.rowBegin[i] &&
                        s.rowIndex[slot - 1] + 1 != r)
                        acc.contiguous = false;
                    s.rowIndex[slot] = r;
                    ++slot;
                    acc.parFlops += 2.0 * useful;
                    acc.usefulBytes += double(useful) * sizeof(Value);
                    acc.rowOps += double(omega);
                }

                // The stream stats: a skipping run streams the occupied
                // rows, any other the whole block payload; SpMM streams
                // row-granular either way.
                const Index occupied = Index(end - s.rowBegin[i]);
                const Index streamedRows = skipEmpty ? occupied : omega;
                acc.streamBytes +=
                    skipEmpty ? uint64_t(occupied) * omega * sizeof(Value)
                              : uint64_t(blk.size) * sizeof(Value);
                acc.spmmBytes +=
                    uint64_t(streamedRows) * omega * sizeof(Value);
            } else {
                // The block payload, plus the b operand through its
                // FIFO: one useful double per chain record.
                acc.streamBytes += (uint64_t(blk.size) + end - s.rowBegin[i]) *
                                   sizeof(Value);
                acc.usefulBytes += double(end - s.rowBegin[i]) * sizeof(Value);
                // Chain steps in execution order (reversed for backward
                // sweeps); the diagonal lane is pre-zeroed like the
                // interpreter's operand rotation.
                for (Index step = 0; step < omega; ++step) {
                    Index lr = backward ? omega - 1 - step : step;
                    Index r = r0 + lr;
                    if (r >= rows)
                        continue;
                    Value *dst = s.values.data() + slot * omega;
                    Index useful = 0;
                    for (Index lc = 0; lc < omega; ++lc) {
                        dst[lc] = lc == lr ? 0.0 : element(blk, lut, lr, lc);
                        useful += dst[lc] != 0.0;
                    }
                    s.rowIndex[slot] = r;
                    ++slot;
                    acc.rowOps += double(omega);
                    acc.peOps += 2.0;
                    acc.seqFlops += 2.0 * useful + 2.0;
                    acc.usefulBytes += double(useful + 2) * sizeof(Value);
                }
            }
            ALR_ASSERT(slot == end, "row count pass disagrees");
        }
    });
    s.contiguousRows = true;
    for (const Partial &acc : partials) {
        s.parFlops += acc.parFlops;
        s.seqFlops += acc.seqFlops;
        s.usefulBytes += acc.usefulBytes;
        s.peOps += acc.peOps;
        s.fcuOps.mul += acc.rowOps;
        s.fcuOps.alu += acc.rowOps;
        s.fcuOps.reduce += acc.rowOps;
        s.totalStreamBytes += acc.streamBytes;
        s.spmmStreamBytes += acc.spmmBytes;
        s.contiguousRows = s.contiguousRows && acc.contiguous;
    }

    // The staged operand covers the SpMV operand (cols entries) or the
    // SymGS iterate (rows entries), rounded up to whole chunks.
    Index operandLen = spmv ? cols : std::max(rows, cols);
    s.paddedOperand =
        size_t((operandLen + omega - 1) / omega) * omega;
    if (P > 0)
        s.lastDp = s.dp[P - 1];

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
    s.parallelSafe = spmv && monotonic;

    // Stamp the replay entry points: runtime ISA dispatch happens
    // here, once per compiled schedule, so the engine's hot loops
    // call fully resolved kernels.
    replay::specialize(s, params);
    return s;
}

} // namespace alr
