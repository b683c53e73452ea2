#include "alrescha/sim/schedule_io.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/binary_io.hh"
#include "common/hash.hh"

namespace alr {

namespace {

// Framing inside a cache file.  Bump on any layout change:
// version-mismatched files fall back to recompile.
constexpr uint32_t kScheduleTag = 0x5C4ED001; // "SCHED" v1
constexpr uint32_t kRowStoreTag = 0x5C4E0005; // "SCHED ROWS"

/** Throw the loader's corruption error unless @p ok. */
void
check(bool ok)
{
    if (!ok)
        throw std::runtime_error("inconsistent schedule in cache");
}

/** @p v starts at 0, ends at @p last and never decreases. */
bool
monotone(const std::vector<size_t> &v, size_t last)
{
    return !v.empty() && v.front() == 0 && v.back() == last &&
           std::is_sorted(v.begin(), v.end());
}

} // namespace

void
serializeRowStore(std::ostream &out, const RowStore &r)
{
    bio::writePod<uint32_t>(out, kRowStoreTag);
    bio::writePod<uint32_t>(out, r.omega);
    bio::writeVec(out, r.rowBegin);
    bio::writeVec(out, r.rowIndex);
    bio::writeVec(out, r.values);
}

RowStore
deserializeRowStore(std::istream &in)
{
    if (bio::readPod<uint32_t>(in) != kRowStoreTag)
        throw std::runtime_error("bad row store tag");
    RowStore r;
    r.omega = bio::readPod<uint32_t>(in);
    bio::readVecInto(in, r.rowBegin);
    bio::readVecInto(in, r.rowIndex);
    bio::readVecInto(in, r.values);

    // What replay indexes with must be in range on its own: omega
    // values per record, a monotone row range per path ending at the
    // record count, and no path holding more than omega records (the
    // timing walk indexes its per-row-count stream terms with a path's
    // record count).
    check(r.omega > 0);
    check(r.values.size() == r.rowIndex.size() * size_t(r.omega));
    check(monotone(r.rowBegin, r.rowIndex.size()));
    for (size_t i = 0; i + 1 < r.rowBegin.size(); ++i)
        check(r.rowBegin[i + 1] - r.rowBegin[i] <= size_t(r.omega));
    return r;
}

void
serializeSchedule(std::ostream &out, const ExecSchedule &s)
{
    bio::writePod<uint32_t>(out, kScheduleTag);
    bio::writePod<uint8_t>(out, uint8_t(s.kernel));
    bio::writePod<uint32_t>(out, s.omega);
    bio::writePod<uint64_t>(out, uint64_t(s.pathCount));

    bio::writeVec(out, s.dp);
    bio::writeVec(out, s.blockRow);
    bio::writeVec(out, s.blockCol);
    bio::writeVec(out, s.operandVec);
    bio::writeVec(out, s.xOff);

    bio::writeVec(out, s.groupBegin);
    bio::writeVec(out, s.groupStore);
    bio::writePod<uint8_t>(out, s.parallelSafe ? 1 : 0);

    bio::writePod<double>(out, s.parFlops);
    bio::writePod<double>(out, s.seqFlops);
    bio::writePod<double>(out, s.usefulBytes);
    bio::writePod<double>(out, s.fcuOps.alu);
    bio::writePod<double>(out, s.fcuOps.reduce);
    bio::writePod<double>(out, s.fcuOps.mul);
    bio::writePod<double>(out, s.fcuOps.add);
    bio::writePod<double>(out, s.peOps);
    bio::writePod<uint64_t>(out, s.totalStreamBytes);
    bio::writePod<uint64_t>(out, uint64_t(s.paddedOperand));
}

ExecSchedule
deserializeSchedule(std::istream &in, std::shared_ptr<const RowStore> rows)
{
    if (bio::readPod<uint32_t>(in) != kScheduleTag)
        throw std::runtime_error("bad schedule tag");

    ExecSchedule s;
    uint8_t kernel = bio::readPod<uint8_t>(in);
    if (kernel > uint8_t(KernelType::PageRank))
        throw std::runtime_error("bad kernel tag in cache");
    s.kernel = KernelType(kernel);
    s.omega = bio::readPod<uint32_t>(in);
    s.pathCount = size_t(bio::readPod<uint64_t>(in));

    bio::readVecInto(in, s.dp);
    bio::readVecInto(in, s.blockRow);
    bio::readVecInto(in, s.blockCol);
    bio::readVecInto(in, s.operandVec);
    bio::readVecInto(in, s.xOff);

    bio::readVecInto(in, s.groupBegin);
    bio::readVecInto(in, s.groupStore);
    s.parallelSafe = bio::readPod<uint8_t>(in) != 0;

    s.parFlops = bio::readPod<double>(in);
    s.seqFlops = bio::readPod<double>(in);
    s.usefulBytes = bio::readPod<double>(in);
    s.fcuOps.alu = bio::readPod<double>(in);
    s.fcuOps.reduce = bio::readPod<double>(in);
    s.fcuOps.mul = bio::readPod<double>(in);
    s.fcuOps.add = bio::readPod<double>(in);
    s.peOps = bio::readPod<double>(in);
    s.totalStreamBytes = bio::readPod<uint64_t>(in);
    s.paddedOperand = size_t(bio::readPod<uint64_t>(in));

    // Structural sanity: the checksum only proves the bytes are the
    // ones some writer hashed, so everything replay indexes with must
    // be in range on its own.  Every per-path vector covers pathCount,
    // the group ranges are monotone and end at the path count, the row
    // store (checked on its own when it was read) has one path per
    // schedule path at this schedule's omega, a backward sweep's groups
    // each sit inside it, every path runs a data path its kernel has,
    // and every operand chunk lies inside the staged operand and is the
    // one its block names (a graph round indexes its frontier mask and
    // per-chunk counts by block column).  A file that parses but
    // violates these is corrupt; throwing here turns it into the same
    // warn-and-recompile path as a truncated one.  (What depends on the
    // live matrix -- that each path's store path is its table entry's
    // block, and its records lie in that block's rows -- is checked
    // when a cache miss claims the schedule.)
    const size_t P = s.pathCount;
    check(s.omega > 0);
    for (size_t n : {s.dp.size(), s.blockRow.size(), s.blockCol.size(),
                     s.operandVec.size(), s.xOff.size()})
        check(n == P);
    check(monotone(s.groupBegin, P));
    check(rows && rows->omega == s.omega && rows->paths() == P);
    check(s.groupStore.empty() || (s.kernel == KernelType::SymGS &&
                                   s.groupStore.size() == s.groupCount()));
    for (size_t g = 0; g < s.groupStore.size(); ++g)
        check(s.groupStore[g] <= P &&
              s.groupBegin[g + 1] - s.groupBegin[g] <= P - s.groupStore[g]);
    // A sweep stages one chunk per block row, and every block row is a
    // group: bound the level derivation's per-chunk arrays by the file.
    check(s.kernel != KernelType::SymGS ||
          s.paddedOperand == s.groupCount() * size_t(s.omega));
    for (size_t i = 0; i < P; ++i) {
        const bool chain = s.dp[i] == DataPathType::DSymgs;
        check(s.kernel == KernelType::SymGS
                  ? chain || s.dp[i] == DataPathType::Gemv
                  : s.dp[i] == kernelDataPath(s.kernel));
        check(size_t(s.xOff[i]) + s.omega <= s.paddedOperand);
        check(uint64_t(chain ? s.blockRow[i] : s.blockCol[i]) * s.omega ==
              s.xOff[i]);
    }
    // Each group is one block row's run of paths, and where groups run
    // in parallel (parallelSafe) the block rows rise from group to
    // group, so no two groups write one output row.  A SymGS sweep
    // replays each group as its GEMVs and then one chain.
    for (size_t g = 0; g + 1 < s.groupBegin.size(); ++g) {
        const size_t first = s.groupBegin[g];
        check(first < s.groupBegin[g + 1]);
        for (size_t i = first + 1; i < s.groupBegin[g + 1]; ++i)
            check(s.blockRow[i] == s.blockRow[first]);
        check(!s.parallelSafe || g == 0 ||
              s.blockRow[first] > s.blockRow[first - 1]);
    }
    check(tallySweepGroups(s));
    s.rows = std::move(rows);
    return s;
}

uint64_t
scheduleParamsFingerprint(const AccelParams &p)
{
    // Only the schedule-shaping knobs participate; see the header.
    hash::WordHasher h;
    h.field(p.omega);
    h.field(p.skipEmptyBlockRows);
    return h.digest();
}

} // namespace alr
