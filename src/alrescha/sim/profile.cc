#include "alrescha/sim/profile.hh"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <unordered_map>

#include "alrescha/sim/replay.hh"
#include "common/version.hh"

namespace alr::profile {

namespace detail {

std::atomic<bool> g_enabled{false};

void
BucketTable::grow(std::vector<Bucket> &cells, size_t i)
{
    // Doubling keeps a walk's growth amortized; whole block rows keep
    // the row arithmetic of add() and rows() exact.
    const size_t need = (i / kCauses + 1) * kCauses;
    cells.resize(std::max(need, cells.size() * 2));
}

void
BucketTable::merge(const BucketTable &other)
{
    for (size_t dp = 0; dp < kDataPaths; ++dp) {
        const std::vector<Bucket> &src = other._cells[dp];
        std::vector<Bucket> &dst = _cells[dp];
        if (dst.size() < src.size())
            dst.resize(src.size());
        for (size_t i = 0; i < src.size(); ++i) {
            dst[i].cycles += src[i].cycles;
            dst[i].bytes += src[i].bytes;
        }
    }
}

std::vector<BucketRow>
BucketTable::rows() const
{
    // Cell order is (dp, block row, cause): the rows come out sorted.
    std::vector<BucketRow> out;
    for (size_t dp = 0; dp < kDataPaths; ++dp) {
        const std::vector<Bucket> &cells = _cells[dp];
        for (size_t i = 0; i < cells.size(); ++i)
            if (cells[i].cycles != 0 || cells[i].bytes != 0)
                out.push_back({DataPathType(dp),
                               int64_t(i / kCauses) - 1,
                               Cause(i % kCauses), cells[i].cycles,
                               cells[i].bytes});
    }
    return out;
}

} // namespace detail

namespace {

struct Store
{
    std::mutex mutex;
    detail::BucketTable buckets;
    std::unordered_map<int64_t, CriticalRow> critical;
    uint64_t runs = 0;
    uint64_t longestChainCycles = 0;
    int64_t longestChainFirstRow = -1;
    int64_t longestChainLastRow = -1;
};

Store &
store()
{
    static Store s;
    return s;
}

bool
rowLess(const BucketRow &a, const BucketRow &b)
{
    if (a.dp != b.dp)
        return uint8_t(a.dp) < uint8_t(b.dp);
    if (a.blockRow != b.blockRow)
        return a.blockRow < b.blockRow;
    return uint8_t(a.cause) < uint8_t(b.cause);
}

} // namespace

const char *
toString(Cause c)
{
    switch (c) {
      case Cause::Stream:          return "stream";
      case Cause::FcuCompute:      return "fcu_compute";
      case Cause::TreeDrain:       return "tree_drain";
      case Cause::ReconfigHidden:  return "reconfig_hidden";
      case Cause::ReconfigExposed: return "reconfig_exposed";
      case Cause::CacheMiss:       return "cache_miss";
      case Cause::CacheAccess:     return "cache_access";
      case Cause::DSymgsWait:      return "dsymgs_wait";
      case Cause::kCount:          break;
    }
    return "?";
}

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.buckets = {};
    s.critical.clear();
    s.runs = 0;
    s.longestChainCycles = 0;
    s.longestChainFirstRow = -1;
    s.longestChainLastRow = -1;
}

RunScope::~RunScope()
{
    commit();
}

void
RunScope::chain(int64_t block_row, uint64_t stream_t, uint64_t dep_in,
                uint64_t start, uint64_t chain_cycles, uint64_t dep_out)
{
    if (!_on)
        return;
    _chains.push_back(
        {block_row, stream_t, dep_in, start, chain_cycles, dep_out});
}

void
RunScope::commit()
{
    if (!_on || _done)
        return;
    _done = true;
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.runs;
    s.buckets.merge(_buckets);
}

void
RunScope::commitSymgs(uint64_t stream_t, uint64_t dep_t,
                      uint64_t pipeline_depth)
{
    if (!_on || _done)
        return;

    // Distribute the exposed dependence-chain cycles backward over the
    // chains that produced them: the last chain ends the run, so it
    // absorbs first; earlier chains absorb what remains up to their own
    // serialized contribution.  A chain's contribution is everything
    // past the point where it could have started for free: its whole
    // span past dep_in when the previous link bound it, or past its own
    // pipeline-fill point when the stream did.  The distribution is
    // exact by construction: takes sum to W.
    uint64_t W = dep_t > stream_t ? dep_t - stream_t : 0;
    uint64_t remaining = W;
    for (size_t i = _chains.size(); i-- > 0 && remaining > 0;) {
        ChainRec &c = _chains[i];
        uint64_t freeStart = c.streamT + pipeline_depth;
        uint64_t bound = std::max(c.depIn, freeStart);
        uint64_t contrib = c.depOut > bound ? c.depOut - bound : 0;
        uint64_t take = std::min(remaining, contrib);
        c.wait = take;
        remaining -= take;
        add(DataPathType::DSymgs, c.blockRow, Cause::DSymgsWait, take);
    }
    // Numerically impossible to leave a remainder (the last chain's
    // contribution reaches back at least to the stream front), but the
    // invariant is load-bearing: never drop cycles.
    if (remaining > 0)
        add(DataPathType::DSymgs,
            _chains.empty() ? -1 : _chains.back().blockRow,
            Cause::DSymgsWait, remaining);

    Store &s = store();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        // Critical-path aggregates per block row.
        for (const ChainRec &c : _chains) {
            CriticalRow &r = s.critical[c.blockRow];
            r.blockRow = c.blockRow;
            ++r.chains;
            r.chainCycles += c.chainCycles;
            r.waitCycles += c.wait;
            uint64_t freeStart = c.streamT + pipeline_depth;
            if (c.depIn > freeStart) {
                r.startStallCycles += c.depIn - freeStart;
                ++r.depBoundChains;
            } else {
                r.slackCycles += freeStart - c.depIn;
            }
        }
        // Longest run of consecutive dependence-bound chains: the
        // serialized critical path through the link-stack recurrence.
        // A segment starts at any chain and extends while each next
        // chain's start is bound by the previous link's completion.
        size_t i = 0;
        while (i < _chains.size()) {
            size_t j = i + 1;
            while (j < _chains.size() &&
                   _chains[j].depIn >
                       _chains[j].streamT + pipeline_depth)
                ++j;
            uint64_t len =
                _chains[j - 1].depOut - _chains[i].depIn;
            if (len > s.longestChainCycles) {
                s.longestChainCycles = len;
                s.longestChainFirstRow = _chains[i].blockRow;
                s.longestChainLastRow = _chains[j - 1].blockRow;
            }
            i = j;
        }
    }
    commit();
}

Snapshot
snapshot()
{
    Store &s = store();
    Snapshot out;
    std::lock_guard<std::mutex> lock(s.mutex);
    out.buckets = s.buckets.rows();
    for (const BucketRow &b : out.buckets) {
        out.attributedCycles += b.cycles;
        out.attributedBytes += b.bytes;
    }
    out.critical.reserve(s.critical.size());
    for (const auto &[row, r] : s.critical)
        out.critical.push_back(r);
    std::sort(out.critical.begin(), out.critical.end(),
              [](const CriticalRow &a, const CriticalRow &b) {
                  return a.blockRow < b.blockRow;
              });
    out.runs = s.runs;
    out.longestChainCycles = s.longestChainCycles;
    out.longestChainFirstRow = s.longestChainFirstRow;
    out.longestChainLastRow = s.longestChainLastRow;
    return out;
}

uint64_t
attributedCycles()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    uint64_t total = 0;
    for (const BucketRow &b : s.buckets.rows())
        total += b.cycles;
    return total;
}

void
exportJson(json::Writer &w, const ExportMeta &meta)
{
    Snapshot snap = snapshot();
    w.beginObject().member("schema_version", version::kJsonSchemaVersion);
    w.key("version");
    replay::writeVersionJson(w, meta.simdMode);
    w.member("kernel", meta.kernel)
        .member("omega", meta.omega)
        .member("total_cycles", meta.totalCycles)
        .member("attributed_cycles", snap.attributedCycles)
        .member("attributed_bytes", snap.attributedBytes)
        .member("runs", snap.runs)
        .key("buckets")
        .beginArray();
    for (const BucketRow &r : snap.buckets)
        w.beginObject(true)
            .member("dp", toString(r.dp))
            .member("block_row", r.blockRow)
            .member("cause", toString(r.cause))
            .member("cycles", r.cycles)
            .member("bytes", r.bytes)
            .end();
    w.end().key("critical_path").beginObject();
    w.member("longest_chain_cycles", snap.longestChainCycles)
        .key("longest_chain_rows")
        .beginArray(true)
        .value(snap.longestChainFirstRow)
        .value(snap.longestChainLastRow)
        .end()
        .key("per_block_row")
        .beginArray();
    for (const CriticalRow &r : snap.critical)
        w.beginObject(true)
            .member("block_row", r.blockRow)
            .member("chains", r.chains)
            .member("chain_cycles", r.chainCycles)
            .member("wait_cycles", r.waitCycles)
            .member("start_stall_cycles", r.startStallCycles)
            .member("slack_cycles", r.slackCycles)
            .member("dep_bound_chains", r.depBoundChains)
            .end();
    w.end().end().end();
}

void
exportJson(std::ostream &os, const ExportMeta &meta)
{
    json::Writer w(os);
    exportJson(w, meta);
    os << '\n';
}

void
exportCsv(std::ostream &os)
{
    Snapshot snap = snapshot();
    // Heatmap layout: one row per block row, one column per cause
    // (cycles, summed over data paths).
    std::map<int64_t, std::array<uint64_t, size_t(Cause::kCount)>> rows;
    for (const BucketRow &r : snap.buckets)
        rows[r.blockRow][size_t(r.cause)] += r.cycles;
    os << "block_row";
    for (size_t c = 0; c < size_t(Cause::kCount); ++c)
        os << "," << toString(Cause(c));
    os << ",total\n";
    for (const auto &[row, cells] : rows) {
        os << row;
        uint64_t total = 0;
        for (size_t c = 0; c < size_t(Cause::kCount); ++c) {
            os << "," << cells[c];
            total += cells[c];
        }
        os << "," << total << "\n";
    }
}

void
exportFolded(std::ostream &os)
{
    Snapshot snap = snapshot();
    for (const BucketRow &r : snap.buckets) {
        if (r.cycles == 0)
            continue;
        os << toString(r.dp) << ";";
        if (r.blockRow < 0)
            os << "run";
        else
            os << "row_" << r.blockRow;
        os << ";" << toString(r.cause) << " " << r.cycles << "\n";
    }
}

std::vector<BucketRow>
hotspots(size_t k)
{
    Snapshot snap = snapshot();
    std::sort(snap.buckets.begin(), snap.buckets.end(),
              [](const BucketRow &a, const BucketRow &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  return rowLess(a, b);
              });
    if (snap.buckets.size() > k)
        snap.buckets.resize(k);
    return snap.buckets;
}

} // namespace alr::profile
