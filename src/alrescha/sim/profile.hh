/**
 * @file
 * Cycle-accounting profiler: attributes every modeled cycle and byte to
 * a (data-path kind x block-row x cause) bucket, emitted identically
 * by the scheduled scalar and SIMD replays and by the test-only
 * reference engine (the table interpreter, tests/reference) from their
 * timing walks.
 *
 * The contract mirrors timeline.*: recording is disabled by default and
 * zero-cost when off (each run loads the enabled flag once, relaxed);
 * the recorder only observes charges the engine already computes, so
 * results, cycle counts, and stat dumps are bit-identical with it on or
 * off.  The hard invariant on top: the attributed cycles of a run sum
 * *exactly* to the run's modeled cycle count, and the attributed bytes
 * sum exactly to the memory model's total traffic (streamed payload
 * plus cache-miss line fills) -- no cycle or byte is dropped or double
 * counted (test-enforced, and re-checked by alr_diff check).
 *
 * Accounting semantics (docs/MODELING.md "Cycle accounting" for the
 * full derivation):
 *
 * - Pipelined (GEMV-class) runs are a sum of charges, so each charge
 *   site attributes directly: the memory-side share of a block's stream
 *   term is Stream, the issue-bound excess (max(issue, mem) - mem) plus
 *   pipeline fills is FcuCompute, reconfiguration charges split into
 *   the portion hidden under the reduction-tree drain (ReconfigHidden)
 *   and the exposed remainder (ReconfigExposed; the first-ever
 *   configuration has no drain to hide under and is fully exposed),
 *   prefetch contention of streaming-read misses is CacheMiss, and the
 *   end-of-run drain is TreeDrain (block row -1: a run-level charge).
 *
 * - D-SymGS sweeps run two timelines (streaming front vs dependence
 *   chain); the run costs max of the two.  Stream-front charges
 *   attribute as above; the excess of the dependence chain over the
 *   streaming front -- the only part of the serialized recurrence that
 *   costs wall-clock -- is distributed backward over the diagonal
 *   chains that bound it, per block row, as DSymgsWait.  Chain-side
 *   cache traffic (diagonal reads, x^t writebacks) attributes its
 *   *bytes* to CacheMiss/CacheAccess buckets; its latency is part of
 *   the dependence timeline and therefore folded into DSymgsWait.
 *
 * The same walk feeds the D-SymGS critical-path extractor: per block
 * row, how long the chain was, how long its start stalled on the
 * previous link, and how much slack it had before becoming
 * dependence-bound; plus the longest serialized run of consecutive
 * dependence-bound chains (the sweep's critical path through the link
 * stack).
 */

#ifndef ALR_ALRESCHA_SIM_PROFILE_HH
#define ALR_ALRESCHA_SIM_PROFILE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "alrescha/config_table.hh"
#include "alrescha/params.hh"
#include "common/json.hh"

namespace alr::profile {

/** Why a cycle (or byte) was spent.  Every modeled cycle lands in
 *  exactly one cause. */
enum class Cause : uint8_t {
    Stream = 0,      ///< memory-side streaming of block payload
    FcuCompute,      ///< issue-bound excess + pipeline fills
    TreeDrain,       ///< end-of-run reduction-tree drain
    ReconfigHidden,  ///< switch-rewrite charge hidden under the drain
    ReconfigExposed, ///< switch-rewrite charge beyond the drain
    CacheMiss,       ///< local-cache miss fill (latency or contention)
    CacheAccess,     ///< critical-path cache hit latency
    DSymgsWait,      ///< dependence-chain cycles beyond the stream front
    kCount
};

/** Stable snake_case label ("stream", "dsymgs_wait", ...). */
const char *toString(Cause c);

/** Cycles and bytes attributed to one (dp, block row, cause) bucket. */
struct Bucket
{
    uint64_t cycles = 0;
    uint64_t bytes = 0;
};

/** One bucket row of a snapshot, sorted for stable export. */
struct BucketRow
{
    DataPathType dp = DataPathType::Gemv;
    int64_t blockRow = -1; ///< -1: run-level charge (tree drain)
    Cause cause = Cause::Stream;
    uint64_t cycles = 0;
    uint64_t bytes = 0;
};

/** Per-block-row D-SymGS critical-path aggregates. */
struct CriticalRow
{
    int64_t blockRow = 0;
    uint64_t chains = 0;         ///< diagonal chains executed
    uint64_t chainCycles = 0;    ///< serialized recurrence cycles
    uint64_t waitCycles = 0;     ///< DSymgsWait attributed to this row
    uint64_t startStallCycles = 0; ///< start delayed by the previous link
    uint64_t slackCycles = 0;    ///< margin before dependence-bound
    uint64_t depBoundChains = 0; ///< chains whose start the chain bound
};

/** Full recorder state, copied out under the lock. */
struct Snapshot
{
    std::vector<BucketRow> buckets;   ///< sorted (dp, blockRow, cause)
    std::vector<CriticalRow> critical; ///< sorted by blockRow
    uint64_t attributedCycles = 0;    ///< sum over buckets
    uint64_t attributedBytes = 0;     ///< sum over buckets
    uint64_t runs = 0;                ///< committed engine runs
    /** Longest run of consecutive dependence-bound diagonal chains
     *  (cycles through the link-stack recurrence), and its block-row
     *  span, across all recorded sweeps. */
    uint64_t longestChainCycles = 0;
    int64_t longestChainFirstRow = -1;
    int64_t longestChainLastRow = -1;
};

namespace detail {
extern std::atomic<bool> g_enabled;

/**
 * Buckets indexed by (dp, block row, cause), dense: one row of
 * Cause::kCount cells per block row, from row -1 (run-level charges)
 * up, per data path.  A run's charges and the recorder's totals both
 * accumulate here, so a charge costs an index, not a hash; an empty
 * cell is a bucket nothing was attributed to.
 */
class BucketTable
{
  public:
    static constexpr size_t kDataPaths = size_t(DataPathType::DPr) + 1;
    static constexpr size_t kCauses = size_t(Cause::kCount);

    void add(DataPathType dp, int64_t block_row, Cause cause,
             uint64_t cycles, uint64_t bytes)
    {
        std::vector<Bucket> &cells = _cells[size_t(dp)];
        const size_t i = size_t(block_row + 1) * kCauses + size_t(cause);
        if (i >= cells.size())
            grow(cells, i);
        cells[i].cycles += cycles;
        cells[i].bytes += bytes;
    }

    /** Add every bucket of @p other. */
    void merge(const BucketTable &other);

    /** The non-empty buckets, sorted (dp, blockRow, cause). */
    std::vector<BucketRow> rows() const;

  private:
    /** Extend @p cells by whole block rows to hold cell @p i. */
    static void grow(std::vector<Bucket> &cells, size_t i);

    std::array<std::vector<Bucket>, kDataPaths> _cells;
};
} // namespace detail

/** True when the recorder is capturing (inline fast path). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Start/stop capturing.  Already-recorded buckets are kept. */
void setEnabled(bool on);

/** Discard everything recorded; keeps the enabled state. */
void reset();

/** Copy out the recorder state (buckets sorted, totals computed). */
Snapshot snapshot();

/** Sum of attributed cycles across all buckets (conservation checks). */
uint64_t attributedCycles();

/**
 * Per-run accumulator.  An engine run constructs one RunScope (which
 * samples the enabled flag once), attributes charges locally as its
 * timing walk computes them, and commits the whole run to the global
 * recorder under one lock.  Every helper is a no-op when the scope was
 * constructed with the recorder off.
 */
class RunScope
{
  public:
    RunScope() : _on(enabled()) {}
    ~RunScope();
    RunScope(const RunScope &) = delete;
    RunScope &operator=(const RunScope &) = delete;

    bool on() const { return _on; }

    /** Attribute @p cycles / @p bytes to (dp, block row, cause).
     *  Inline: a timing walk charges several times per path. */
    void add(DataPathType dp, int64_t block_row, Cause cause,
             uint64_t cycles, uint64_t bytes = 0)
    {
        if (_on && (cycles != 0 || bytes != 0))
            _buckets.add(dp, block_row, cause, cycles, bytes);
    }

    /**
     * Record one D-SymGS diagonal chain for the wait distribution and
     * the critical-path extractor.  @p stream_t is the streaming front
     * when the chain issued, @p dep_in the dependence timeline before
     * it, @p start its actual start (after the pipeline and the
     * diagonal read), @p dep_out the dependence timeline after it.
     */
    void chain(int64_t block_row, uint64_t stream_t, uint64_t dep_in,
               uint64_t start, uint64_t chain_cycles, uint64_t dep_out);

    /**
     * Commit a GEMV-class run: merge the local buckets into the global
     * recorder.  Idempotent; the destructor commits if the caller did
     * not.
     */
    void commit();

    /**
     * Commit a D-SymGS sweep: distribute the dependence-chain excess
     * max(0, dep_t - stream_t) backward over the recorded chains as
     * per-block-row DSymgsWait, fold the chain records into the
     * critical-path aggregates (@p pipeline_depth decides whether a
     * chain start was dependence-bound), then merge like commit().
     */
    void commitSymgs(uint64_t stream_t, uint64_t dep_t,
                     uint64_t pipeline_depth);

  private:
    struct ChainRec
    {
        int64_t blockRow;
        uint64_t streamT;
        uint64_t depIn;
        uint64_t start;
        uint64_t chainCycles;
        uint64_t depOut;
        uint64_t wait = 0; ///< filled by the distribution pass
    };

    bool _on;
    bool _done = false;
    detail::BucketTable _buckets;
    std::vector<ChainRec> _chains;
};

/** Metadata stamped into exports so profiles compare across builds. */
struct ExportMeta
{
    std::string kernel;
    Index omega = 0;
    /** The engine's cumulative modeled cycles (conservation anchor). */
    uint64_t totalCycles = 0;
    /** The --simd request; the version block names the ISA it
     *  resolves to on this machine. */
    SimdMode simdMode = SimdMode::Auto;
};

/**
 * Export the recorded profile as @p w's next value, one JSON object:
 * build provenance (git describe, SIMD mode), the meta block, the
 * sorted buckets, and the critical-path section.  Schema and
 * conservation checked by diff::check (alr_diff check).
 */
void exportJson(json::Writer &w, const ExportMeta &meta);
/** The same object as a standalone document (alr_sim --profile). */
void exportJson(std::ostream &os, const ExportMeta &meta);

/**
 * Per-block-row heatmap CSV: one row per block row (plus -1 for
 * run-level charges), one column per cause (cycles, summed over data
 * paths), plus a total column.
 */
void exportCsv(std::ostream &os);

/**
 * flamegraph.pl-compatible folded stacks: one line per bucket,
 * "dp;row_N;cause cycles" (run-level charges fold under "run").
 * Render with `flamegraph.pl --countname cycles profile.folded`.
 */
void exportFolded(std::ostream &os);

/** The @p k hottest buckets by cycles (the --report hotspot table). */
std::vector<BucketRow> hotspots(size_t k);

} // namespace alr::profile

#endif // ALR_ALRESCHA_SIM_PROFILE_HH
