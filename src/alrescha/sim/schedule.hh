/**
 * @file
 * The schedule compiler: a one-time pass that lowers a
 * (LocallyDenseMatrix, ConfigTable) pair into a flat, cache-friendly
 * ExecSchedule so iterative kernels decode the table once and execute
 * it in tight loops every iteration -- the simulator-level analogue of
 * the paper's own offline conversion (Algorithm 1), which exists
 * precisely so the hardware streams with no runtime metadata decode.
 * Every table lowers: SymGS into GEMVs and D-SymGS chains, every other
 * kernel (SpMV, BFS, SSSP, PageRank) into one GEMV-class data path per
 * block over the x^t operand.
 *
 * What is precomputed (everything that is invariant across runs and
 * that the functional replay or the cache-access sequence reads):
 *  - per-path data path, block geometry, operand cache vector and
 *    gather offset;
 *  - the resolved block values, gathered once through the
 *    payload-position LUTs into omega-wide row records (RowStore).
 *    The store is laid out in LocallyDenseMatrix::blocks() order, each
 *    block's rows ascending, so it depends only on the matrix: every
 *    schedule of one matrix binds the one store whichever of them
 *    compiled first built -- a PDE load's SpMV and both sweeps, a
 *    graph load's BFS, SSSP, PageRank and SpMV.  Every table but the
 *    backward sweep's visits the blocks in that order and indexes the
 *    store by path; the backward sweep visits the same block-row runs
 *    in descending order and replays each chain last to first;
 *  - per-run totals of every accumulated stat (flops, useful bytes,
 *    streamed bytes, FCU/RCU op counts): all are integer-valued
 *    doubles, so adding the precomputed total once is bit-identical to
 *    the table interpreter's per-element accumulation in any order.
 *    They describe a run that visits every path and multiplies in its
 *    ALUs; a relaxation round counts its own, since its ALUs add only
 *    the edge lanes and a frontier round skips paths.
 *
 * What is NOT precomputed: every timing term.  The engine's timing
 * walk charges each path as the reference engine (tests/reference)
 * does -- the switch through Rcu::reconfigure, the pipeline fill, the
 * out-chunk write-back, the local-cache hits and misses, and the
 * stream and chain terms from the path's row count -- so each timing
 * rule has one copy, and no schedule depends on a latency or a
 * bandwidth (only omega and skipEmptyBlockRows shape one).  The cache
 * lines and the configured data path are a run's whole entry state,
 * so the engine memoizes each walk per schedule (TimingMemo,
 * engine.hh): the memo is runtime state, never compiled or persisted.
 */

#ifndef ALR_ALRESCHA_SIM_SCHEDULE_HH
#define ALR_ALRESCHA_SIM_SCHEDULE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "alrescha/config_table.hh"
#include "alrescha/format.hh"
#include "alrescha/params.hh"
#include "alrescha/sim/cache.hh"
#include "alrescha/sim/fcu.hh"
#include "alrescha/sim/replay_fns.hh"

namespace alr {

class ThreadPool;

/**
 * The row records of one matrix: for each stored block, in
 * LocallyDenseMatrix::blocks() order (a store path), its rows in
 * ascending order, each with its global output row and its omega
 * logical block values in lane order, the diagonal included (a chain
 * masks its diagonal lane when it replays).  A block records every row
 * inside the matrix, except that a GEMV-class block skips its all-zero
 * rows when empty rows are skipped; a SymGs-layout diagonal block, the
 * one a D-SymGS chain steps through, always records every row inside
 * the matrix (the encoder keeps its diagonal non-zero, so none is
 * empty).  Immutable once built, and held through
 * std::shared_ptr<const RowStore> by every schedule of the matrix.
 */
struct RowStore
{
    Index omega = 0;
    /** Row-record range of store path j: [rowBegin[j], rowBegin[j+1]).
     *  Its length -- the occupied rows a GEMV path streams when empty
     *  rows are skipped, the steps of a D-SymGS chain -- is what the
     *  timing walk derives the path's stream and chain terms from. */
    std::vector<size_t> rowBegin;
    std::vector<Index> rowIndex; ///< global output row
    /** Gathered block values, omega per record, in lane order.
     *  64-byte-aligned so the ω-specialized replay kernels load whole
     *  records at full width (a record is one cache line at the
     *  paper's ω = 8). */
    AlignedValueVector values;

    /** Store paths: one per stored block. */
    size_t paths() const
    {
        return rowBegin.empty() ? 0 : rowBegin.size() - 1;
    }
    /** Row records of store path j. */
    size_t pathRows(size_t j) const
    {
        return rowBegin[j + 1] - rowBegin[j];
    }

    /** Bytes held (element counts, not capacities). */
    size_t bytes() const;
};

/**
 * A compiled execution schedule: the configuration table lowered into
 * struct-of-arrays per-path records plus per-run stat totals.  Owned
 * and cached by the Engine, keyed on the programmed (ld, table) pair.
 */
struct ExecSchedule
{
    KernelType kernel = KernelType::SpMV;
    Index omega = 0;
    size_t pathCount = 0;

    // ---- per-path records (size pathCount) ----
    std::vector<DataPathType> dp;
    std::vector<Index> blockRow;
    std::vector<Index> blockCol;
    /** Operand vector of the streaming chunk read (Xt/Xprev). */
    std::vector<CacheVec> operandVec;
    /**
     * Gather plan: element offset of path i's operand chunk inside the
     * chunk-padded operand staging buffer (blockCol * omega, hoisted).
     * Against a buffer of paddedOperand entries every chunk load is a
     * full-width, in-bounds load -- no per-lane tail handling.
     */
    std::vector<uint32_t> xOff;

    // ---- row records (one per occupied row / diagonal chain step) ----
    /** The matrix's records, shared with every schedule of the same
     *  matrix. */
    std::shared_ptr<const RowStore> rows;
    /** bytes() counts the store here: this schedule built it, or was
     *  the first of its matrix in a restored cache file.  Summing
     *  bytes() over an engine's schedules then counts each store
     *  once. */
    bool countsRows = false;
    /** Row records of path i of a schedule that indexes the store by
     *  path (every one but a backward sweep's). */
    size_t pathRows(size_t i) const { return rows->pathRows(i); }

    // ---- block-row groups (independent GEMV path ranges) ----
    /** Path range of group g: [groupBegin[g], groupBegin[g+1]).  Two
     *  groups never share an output row when parallelSafe. */
    std::vector<size_t> groupBegin;
    /** Block rows were non-decreasing, so groups touch disjoint output
     *  rows and the functional pass may run them in parallel. */
    bool parallelSafe = false;
    size_t groupCount() const
    {
        return groupBegin.empty() ? 0 : groupBegin.size() - 1;
    }
    /**
     * A backward sweep's store offsets: group g's paths are store paths
     * groupStore[g] onwards, in order -- the block row's run of blocks,
     * visited in descending block-row order -- and its chain replays
     * its records last to first.  Empty in every other schedule, whose
     * path i is store path i.
     */
    std::vector<size_t> groupStore;
    /** Whether the schedule walks the store backwards (groupStore). */
    bool reversed() const { return !groupStore.empty(); }
    /** The store path of group g's first path. */
    size_t groupFirst(size_t g) const
    {
        return reversed() ? groupStore[g] : groupBegin[g];
    }

    // ---- link-stack traffic of one SymGS sweep (tallySweepGroups) ----
    /** GEMV paths: each pushes its partials once and its block row's
     *  chain pops them once.  Derived, never persisted. */
    uint64_t linkPushes = 0;
    /** The widest block row's GEMV count: the stack's deepest
     *  occupancy.  Derived, never persisted. */
    uint64_t linkPeak = 0;

    // ---- dependence levels of a SymGS sweep (tallySweepGroups) ----
    /**
     * The block-row groups level by level, each level's in ascending
     * group order.  A group's level is one past the highest level of
     * every earlier group it conflicts with on an x chunk: one that
     * wrote a chunk its GEMVs read, or read or wrote the chunk its
     * chain writes.  Groups of one level therefore touch no chunk
     * another of them writes, and run in any order, or at once, with
     * the serial sweep's exact results (DESIGN.md "Why the timing walk
     * is serial").  Derived, never persisted; empty for other kernels.
     */
    std::vector<size_t> sweepOrder;
    /** Level l's groups: sweepOrder[levelBegin[l], levelBegin[l+1]). */
    std::vector<size_t> levelBegin;
    size_t levelCount() const
    {
        return levelBegin.empty() ? 0 : levelBegin.size() - 1;
    }
    /**
     * The work rule: a sweep runs its levels on the host pool only when
     * they hold at least kLevelRecords row records on average; below
     * that a level's barrier costs more than its groups' parallel work
     * saves, and the sweep stays one serial call.
     */
    static constexpr size_t kLevelRecords = 2048;
    bool wideLevels() const
    {
        return levelCount() > 0 &&
               rows->rowBegin.back() >= kLevelRecords * levelCount();
    }

    // ---- stamped replay specialization (replay::specialize) ----
    /**
     * Resolved replay entry points: the fully specialized
     * per-(runtime ISA, ω) kernels when ω ∈ {2, 4, 8}, else the
     * generic runtime-ω arms.  The engine's functional pass calls these
     * blind -- no ω switch, no ISA branch in the replayed loop.
     */
    replay::Fns fns;

    // ---- per-run constants ----
    double parFlops = 0.0;
    double seqFlops = 0.0;
    double usefulBytes = 0.0;
    /** FCU op totals for one run (per right-hand side for SpMM). */
    FcuOpCounts fcuOps;
    double peOps = 0.0;
    /** Streamed payload bytes per run (an SpMM streams its SpMV's). */
    uint64_t totalStreamBytes = 0;
    /**
     * Length the operand vector must be staged to for the gather plan:
     * the chunk count times omega (operand entries past the matrix edge
     * are staged as 0.0, matching the interpreter's zero-filled chunk
     * gather because the value lanes there are 0.0 too).
     */
    size_t paddedOperand = 0;

    /** Bytes held, for cache-size accounting (element counts, not
     *  capacities, so a restored schedule reports what its compiled
     *  original did): the store counts only where countsRows is set. */
    size_t bytes() const;
};

/**
 * Check that every block-row group of a SymGS schedule is its GEMV
 * paths followed by exactly one D-SymGS chain -- the shape the sweep
 * kernel (replay::SweepFn) and the link stack assume -- and set @p s's
 * linkPushes and linkPeak from them, and its sweepOrder and levelBegin
 * from the x chunks (xOff / omega) each group reads and writes.  False
 * when some group is not; other kernels pass with zero counts and no
 * levels.  (Each group is one block row's run: compileSchedule builds
 * them so, and the cache loader checks it.  The loader calls this only
 * once every xOff is a chunk inside paddedOperand.)
 */
bool tallySweepGroups(ExecSchedule &s);

/**
 * Lower @p table against @p ld into an ExecSchedule.  Pure: touches no
 * engine state and no stats.  Every table kernel is schedulable; a
 * graph round's frontier only decides which paths it visits, a filter
 * the engine applies per path.
 *
 * The payload passes run on @p pool (nullptr = the process-wide pool;
 * the engine passes its host pool, the one encode and convert use) and
 * write exact-size row arrays; the result is byte-identical at any
 * pool size (DESIGN.md "Schedule compiler").
 *
 * @p shared, when given, is the store of another schedule of @p ld:
 * the schedule binds it instead of gathering its own records.  Without
 * it the schedule builds (and counts) the matrix's store.
 *
 * The table must visit every stored block once, in blocks() order, or
 * -- a backward SymGS sweep -- the block-row runs of blocks() in
 * descending order; a SymGS table must also be reordered
 * (tallySweepGroups).  Any other panics.
 */
ExecSchedule compileSchedule(const LocallyDenseMatrix &ld,
                             const ConfigTable &table,
                             const AccelParams &params,
                             ThreadPool *pool = nullptr,
                             std::shared_ptr<const RowStore> shared = nullptr);

} // namespace alr

#endif // ALR_ALRESCHA_SIM_SCHEDULE_HH
