/**
 * @file
 * The schedule compiler (ISSUE 2): a one-time pass that lowers a
 * (LocallyDenseMatrix, ConfigTable) pair into a flat, cache-friendly
 * ExecSchedule so iterative kernels decode the table once and execute
 * it in tight loops every iteration -- the simulator-level analogue of
 * the paper's own offline conversion (Algorithm 1), which exists
 * precisely so the hardware streams with no runtime metadata decode.
 *
 * What is precomputed (everything that is invariant across runs):
 *  - per-path block geometry, operand cache vector, and the resolved
 *    block values, gathered once through the payload-position LUTs into
 *    a struct-of-arrays of omega-wide row records;
 *  - per-path reconfiguration charges and stat deltas for every path
 *    after the first (transition i-1 -> i is known at compile time; the
 *    first path's charge depends on the RCU switch state left by the
 *    previous run, so it is replayed through Rcu::reconfigure at
 *    runtime);
 *  - the pipeline-fill pattern (the fill flag is reset at run start and
 *    on every data-path switch, both compile-time facts);
 *  - per-path stream bytes and stream-cycle terms (the memory pipe is a
 *    pure bandwidth function of the static byte count);
 *  - per-run totals of every accumulated stat (flops, useful bytes,
 *    FCU/RCU op counts): all are integer-valued doubles, so adding the
 *    precomputed total once is bit-identical to the table
 *    interpreter's per-element accumulation in any order.
 *
 * What is NOT precomputed (runtime state the timing model carries
 * across runs): local-cache hits and misses -- the scheduled timing
 * walk replays the exact same CacheModel access sequence as the table
 * interpreter -- the first path's reconfiguration, and the link-stack
 * contents, which the scheduled D-SymGS drives through the real
 * LinkStack.  That is why cycle counts and every registered stat match
 * the interpreter, which the tests keep as the reference engine
 * (tests/reference), bit for bit.  The cache lines and the configured
 * data path are a run's whole entry state, so the engine memoizes each
 * walk per schedule (TimingMemo, engine.hh) instead of storing any of
 * it here: the memo is runtime state, never compiled or persisted.
 */

#ifndef ALR_ALRESCHA_SIM_SCHEDULE_HH
#define ALR_ALRESCHA_SIM_SCHEDULE_HH

#include <cstdint>
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
    /** Reconfiguration cycles charged at path i > 0 ([0] is 0: the
     *  first path replays through Rcu::reconfigure at runtime). */
    std::vector<uint32_t> cfgCycles;
    /** Pipeline-fill cycles charged at this path (0 when warm). */
    std::vector<uint32_t> fillCycles;
    /** Block row flushed to the Out vector before this path, or -1. */
    std::vector<int64_t> writeOutRow;
    /** Stream-cycle term of this path (SpMV bc / SymGS stream term). */
    std::vector<uint64_t> streamCycles;
    /** Memory-side component of streamCycles (pure bandwidth term);
     *  streamCycles - memCycles is the issue-bound excess.  Profiler
     *  stream/compute split; unused by the timing walk itself. */
    std::vector<uint64_t> memCycles;
    /** Payload bytes this path streams (diag paths include the b
     *  operand); profiler byte attribution. */
    std::vector<uint64_t> streamBytes;
    /** Rows that cross the bus (SpMM issue term basis). */
    std::vector<Index> streamedRows;
    /** SpMM memory-side stream cycles (streamedRows * omega doubles). */
    std::vector<uint64_t> spmmMemCycles;
    /**
     * Gather plan: element offset of path i's operand chunk inside the
     * chunk-padded operand staging buffer (blockCol * omega, hoisted).
     * Against a buffer of paddedOperand entries every chunk load is a
     * full-width, in-bounds load -- no per-lane tail handling.
     */
    std::vector<uint32_t> xOff;
    /** D-SymGS diagonal paths: serialized chain cycles. */
    std::vector<uint64_t> chainCycles;
    /** Row-record range of path i: [rowBegin[i], rowBegin[i+1]). */
    std::vector<size_t> rowBegin;

    // ---- row records (one per occupied row / diagonal chain step) ----
    std::vector<Index> rowIndex; ///< global output row
    /** Gathered block values, omega per record, in lane order; the
     *  diagonal lane of D-SymGS chain records is pre-zeroed exactly as
     *  the interpreter zeroes it.  64-byte-aligned so the ω-specialized
     *  replay kernels load whole records at full width (a record is one
     *  cache line at the paper's ω = 8). */
    AlignedValueVector values;

    // ---- block-row groups (independent GEMV path ranges) ----
    /** Path range of group g: [groupBegin[g], groupBegin[g+1]).  Two
     *  groups never share an output row when parallelSafe. */
    std::vector<size_t> groupBegin;
    /** Block rows were non-decreasing, so groups touch disjoint output
     *  rows and the functional pass may run them in parallel. */
    bool parallelSafe = false;

    // ---- stamped replay specialization (replay::specialize) ----
    /**
     * Resolved replay entry points: the fully specialized
     * per-(runtime ISA, ω, row-layout) kernels when ω ∈ {2, 4, 8},
     * else the generic runtime-ω arms.  The engine's functional pass
     * calls these blind -- no ω switch, no ISA branch in the replayed
     * loop.
     */
    replay::Fns fns;
    /**
     * Every GEMV path's rows are consecutive (no row skipped inside
     * any path), so a row's output index folds to base + offset and
     * the specialized kernels skip the rowIndex indirection.
     */
    bool contiguousRows = false;

    // ---- per-run constants ----
    int64_t finalOutRow = -1;
    DataPathType lastDp = DataPathType::Gemv;
    /** Reconfigurations (and their exposed stall cycles) at paths > 0;
     *  flushed once per run via Rcu::noteReconfigs. */
    double reconfigCount = 0.0;
    double reconfigStall = 0.0;
    double parFlops = 0.0;
    double seqFlops = 0.0;
    double usefulBytes = 0.0;
    /** FCU op totals for one run (per right-hand side for SpMM). */
    FcuOpCounts fcuOps;
    double peOps = 0.0;
    /** Streamed payload bytes per run (SpMV / SymGS accounting). */
    uint64_t totalStreamBytes = 0;
    /** Streamed payload bytes under SpMM accounting (row-granular). */
    uint64_t spmmStreamBytes = 0;
    /**
     * Length the operand vector must be staged to for the gather plan:
     * the chunk count times omega (operand entries past the matrix edge
     * are staged as 0.0, matching the interpreter's zero-filled chunk
     * gather because the value lanes there are 0.0 too).
     */
    size_t paddedOperand = 0;

    /** Heap footprint, for curiosity and cache-size accounting. */
    size_t bytes() const;
};

/**
 * Lower @p table against @p ld into an ExecSchedule.  Pure: touches no
 * engine state and no stats.  Only SpMV and SymGS tables are
 * schedulable (graph rounds walk the table: their control flow depends
 * on the frontier operand, which changes every round).
 *
 * The payload passes run on @p pool (nullptr = the process-wide pool;
 * the engine passes its host pool, the one encode and convert use) and
 * write exact-size row arrays; the result is byte-identical at any
 * pool size (DESIGN.md "Schedule compiler").
 */
ExecSchedule compileSchedule(const LocallyDenseMatrix &ld,
                             const ConfigTable &table,
                             const AccelParams &params,
                             ThreadPool *pool = nullptr);

} // namespace alr

#endif // ALR_ALRESCHA_SIM_SCHEDULE_HH
