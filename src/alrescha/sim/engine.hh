/**
 * @file
 * The Alrescha execution engine: runs a configuration table against a
 * locally-dense matrix stream by replaying the table's compiled
 * ExecSchedule -- SpMV, SpMM, SymGS and the BFS, SSSP, connected-
 * components and PageRank rounds alike; the table walks survive only as
 * the test oracle (tests/reference) -- computing real results (verified
 * against the reference kernels) while accounting cycles the way the
 * paper's microarchitecture spends them.  Every run charges its paths
 * through one timing walker (Engine::Walk), which holds one copy of
 * each rule:
 *
 * - GEMV-class data paths (GEMV, D-BFS, D-SSSP, D-PR) are fully
 *   pipelined: one block row per cycle after the tree fills, bounded by
 *   the memory stream rate.
 * - D-SymGS serializes: each in-block row waits for the previous row's
 *   result to rotate into the multiplier operands (ALU + tree + PE
 *   subtract/divide latency per step).
 * - Data-path switches drain the reduction tree while the RCU switch is
 *   reprogrammed; only configuration time beyond the drain stalls.
 * - Vector chunks come from the RCU local cache; misses stall for the
 *   DRAM fill.  Matrix payload always streams sequentially.
 *
 * A run's modeled timing is a pure function of its schedule, the local
 * cache's lines and the RCU's configured data path (an SpMM adds stream
 * terms that depend only on its right-hand-side count); operand values
 * never enter it, because the configuration table fixes every access
 * ahead of the data (§4.5).  So each cached schedule keeps a small
 * TimingMemo: the first run from an entry state walks and records what
 * the walk did, and a later run from the same state runs only its
 * functional pass and replays the record.  A frontier round is the one
 * exception: which paths it visits depends on its frontier mask, so it
 * always walks and never touches the memo.
 */

#ifndef ALR_ALRESCHA_SIM_ENGINE_HH
#define ALR_ALRESCHA_SIM_ENGINE_HH

#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "alrescha/config_table.hh"
#include "alrescha/format.hh"
#include "alrescha/params.hh"
#include "alrescha/sim/fcu.hh"
#include "alrescha/sim/memory.hh"
#include "alrescha/sim/rcu.hh"
#include "alrescha/sim/schedule.hh"
#include "common/stats.hh"

namespace alr {

class ThreadPool;

/** Timing outcome of one engine run. */
struct RunTiming
{
    uint64_t cycles = 0;
    /** Cycles spent in serialized D-SymGS data paths. */
    uint64_t seqCycles = 0;
    /** Cycles spent in pipelined (GEMV-class) data paths. */
    uint64_t parCycles = 0;
};

/** What a finished run adds to its engine (Engine::commitRun). */
struct RunCommit
{
    /** The engine's totalCycles() when the run started. */
    uint64_t base = 0;
    RunTiming timing;
    double parFlops = 0.0;
    double seqFlops = 0.0;
    double usefulBytes = 0.0;
    /** Run-level data-path span on the timeline, or nullptr. */
    const char *name = nullptr;
};

/**
 * The timing memo of one cached schedule.  Its key is what the timing
 * walk reads on entry -- the local cache's line array and the RCU's
 * configured data path (or none) -- and an entry holds what the walk
 * leaves: the run's RunTiming, the exit line array and the integer
 * counts of every cache and switch event (WalkCounts).  A hit
 * therefore reproduces every modeled number and stat of a walk bit for
 * bit.  SpMV and SpMM runs share an SpMV schedule's entries, which
 * hold SpMV timings (Engine::runSpmm adds its k-dependent terms).  At
 * most kCapacity entries, most recently used first; runs with the
 * profiler on, or with the timeline recording the modeled plane,
 * neither read nor write it (they always walk), and it is never
 * persisted.
 */
class TimingMemo
{
  public:
    static constexpr size_t kCapacity = 8;

    /**
     * Start a run from @p rcu's current state.  Flush @p rcu first, so
     * what is pending afterwards is this run's alone.  On a hit,
     * install the entry's exit lines and counts into @p rcu, set
     * @p timing to its RunTiming and return true: the run skips its
     * walk.  On a miss, remember the key and return false: the run
     * walks, then calls record().
     */
    bool replay(Rcu &rcu, RunTiming &timing);

    /** Record the walk started by a missed replay(). */
    void record(const Rcu &rcu, const RunTiming &timing);

  private:
    struct Entry
    {
        std::vector<CacheModel::Line> lines;
        std::optional<DataPathType> configured;

        RunTiming timing;
        std::vector<CacheModel::Line> exitLines;
        WalkCounts counts;
    };

    std::vector<Entry> _entries;
    /** The key of the walk in progress. */
    Entry _walk;
};

class Engine
{
  public:
    explicit Engine(const AccelParams &params = {});
    ~Engine();

    const AccelParams &params() const { return _params; }

    /** Attach the streamed matrix and its configuration table. */
    void program(const LocallyDenseMatrix *ld, const ConfigTable *table);

    /**
     * Compile (or fetch from the cache) the execution schedule for the
     * programmed pair, so the first run after programming is already
     * cheap; every run replays it.  A compile binds the row store of a
     * cached schedule of the same matrix instead of gathering its own,
     * so a PDE load's SpMV and sweep schedules hold one store, as do a
     * graph load's BFS, SSSP, PageRank and SpMV schedules.  Never
     * nullptr.
     */
    const ExecSchedule *prepareSchedule();

    /**
     * The host pool -- locally-dense encode, Algorithm 1 conversion
     * (Accelerator::load*), schedule compilation, the group-parallel
     * functional passes of SpMV and SpMM, and the levels of a SymGS
     * sweep whose levels carry enough work: a private pool of
     * params.hostThreads workers, built on first use, or the
     * process-wide pool when that is <= 0.  One worker runs inline.
     */
    ThreadPool &hostPool();

    /**
     * Drop every cached schedule.  Schedules are keyed on the
     * generation counters of the programmed (matrix, table) pair, so a
     * new object at a recycled address can never alias a stale entry;
     * invalidation is now only a way to release the cached memory
     * eagerly (Accelerator still does this on every load*).
     */
    void invalidateSchedules();

    /** Schedule compilations since construction (cache diagnostics;
     *  deliberately not a registered stat, so a stat dump does not
     *  depend on how warm the cache was). */
    uint64_t scheduleCompiles() const { return _scheduleCompiles; }

    /** Schedule-cache hits since construction: generation matches plus
     *  restored-pool promotions (warm-start claims).  Like
     *  scheduleCompiles, not a registered stat -- the serve metrics
     *  registry reads it instead. */
    uint64_t scheduleHits() const
    {
        std::lock_guard<std::mutex> lock(_scheduleMutex);
        return _scheduleHits;
    }

    /** Runs that replayed a timing-memo entry instead of walking,
     *  since construction.  Like scheduleHits, not a registered stat:
     *  a stat dump never depends on how warm the memo was. */
    uint64_t timingMemoHits() const { return _timingMemoHits; }

    /**
     * Compiled schedules kept before the least recently used one is
     * evicted (and counted under schedule_evictions).  It never binds
     * an Accelerator's engine: every load* drops the cache, and a load
     * runs at most four schedules (a graph load's BFS, SSSP, PageRank
     * and SpMV).
     */
    static constexpr size_t kScheduleCacheCapacity = 8;

    /** Number of schedules currently cached. */
    size_t cachedSchedules() const
    {
        std::lock_guard<std::mutex> lock(_scheduleMutex);
        return _schedules.size();
    }

    /** Schedules evicted from the MRU cache since construction. */
    uint64_t scheduleEvictions() const
    {
        return uint64_t(_scheduleEvictions.value());
    }

    /**
     * Persist the MRU schedule cache (front-to-back) in the versioned
     * binary cache format: each matrix's row store once, under the
     * matrix's content hash, then the content-hash keys and the
     * compiled state of each schedule.  Returns false (after warn) on
     * a write failure.
     */
    bool saveScheduleCache(std::ostream &out) const;
    bool saveScheduleCacheFile(const std::string &path) const;

    /**
     * Restore a persisted cache into the restored-schedule pool.  A
     * later cache miss whose (matrix, table) content hashes match a
     * pool entry promotes it into the MRU cache -- re-stamped through
     * replay::specialize -- instead of compiling, so a warm start
     * performs zero compileSchedule calls.  Magic/version/params
     * mismatches, truncation, and corruption warn and return false
     * (the engine then recompiles as usual); a missing file returns
     * false silently (a cold start is not an error).
     */
    bool loadScheduleCache(std::istream &in);
    bool loadScheduleCacheFile(const std::string &path);

    /** Restored schedules waiting to be claimed by a cache miss. */
    size_t restoredSchedules() const
    {
        std::lock_guard<std::mutex> lock(_scheduleMutex);
        return _restored.size();
    }

    /** SpMV / graph tables: y = A x (table kernel SpMV). */
    DenseVector runSpmv(const DenseVector &x, RunTiming *timing = nullptr);

    /**
     * SpMM: Y = A X for k right-hand sides, streaming each matrix
     * block once and issuing its rows once per RHS -- the block
     * payload cost amortizes over k, so memory-bound SpMV turns
     * compute-bound as k grows (an extension of the paper's SpMV).
     */
    std::vector<DenseVector> runSpmm(const std::vector<DenseVector> &xs,
                                     RunTiming *timing = nullptr);

    /**
     * One Gauss-Seidel sweep in the table's direction; @p x enters as
     * the previous iterate and leaves updated (table kernel SymGS).
     */
    void runSymgsSweep(const DenseVector &b, DenseVector &x,
                       RunTiming *timing = nullptr);

    /**
     * One min-plus relaxation round over the programmed matrix (which
     * must be the *transposed* adjacency so each output row reduces over
     * in-edges): next[v] = min(dist[v], min_u dist[u] + w(u,v)).
     * D-BFS uses hop counts (unit addend); D-SSSP uses edge weights.
     */
    DenseVector runRelaxRound(const DenseVector &dist,
                              RunTiming *timing = nullptr);

    /**
     * Frontier-aware variant (Table 1's "frontier vector" operand):
     * blocks whose source chunk has no active vertex are skipped
     * entirely -- safe for monotone min-relaxations because a block's
     * unchanged contribution is already folded into @p dist.
     * @p active_chunks has one flag per omega-wide chunk.  A mask that
     * skips every block streams nothing and leaves the RCU's configured
     * data path where it was.
     */
    DenseVector runRelaxRound(const DenseVector &dist,
                              const std::vector<uint8_t> &active_chunks,
                              RunTiming *timing = nullptr);

    /**
     * One min-label propagation round (connected components, an
     * extension kernel): next[v] = min(label[v], min_u label[u]) over
     * in-edges.  Uses the D-BFS data path with a zero addend.
     */
    DenseVector runLabelRound(const DenseVector &labels,
                              RunTiming *timing = nullptr);

    /** Frontier-aware label round (see runRelaxRound overload). */
    DenseVector runLabelRound(const DenseVector &labels,
                              const std::vector<uint8_t> &active_chunks,
                              RunTiming *timing = nullptr);

    /**
     * One PageRank propagation round over the transposed adjacency:
     * returns sums[v] = sum over in-edges (rank[u] / outdeg[u]).  The
     * per-chunk divisions run on the RCU PEs.
     */
    DenseVector runPrRound(const DenseVector &rank,
                           const std::vector<Index> &outdeg,
                           RunTiming *timing = nullptr);

    /**
     * Commit a finished run: add its useful FLOPs and bytes and its
     * counted cache, switch and link-stack events (Rcu::flush), emit
     * its timeline tail (the run-level span, the memory stream front,
     * the final tree drain, and the cache and link occupancy counters),
     * count it, and sample the snapshotter.  @p timing, when given,
     * receives the run's timing.  Every run ends here, including the
     * test-only reference engine's (tests/reference).
     */
    void commitRun(const RunCommit &run, RunTiming *timing = nullptr);

    /** Cumulative cycle count across runs since the last reset. */
    uint64_t totalCycles() const { return uint64_t(_cycles.value()); }
    uint64_t seqCycles() const { return uint64_t(_seqCycles.value()); }
    uint64_t parCycles() const { return uint64_t(_parCycles.value()); }

    /** Useful FLOPs executed in serialized / pipelined paths (Fig 16). */
    double seqFlops() const { return _seqFlops.value(); }
    double parFlops() const { return _parFlops.value(); }
    double sequentialOpFraction() const;

    /** Wall-clock seconds for the cumulative cycles. */
    double seconds() const;

    /**
     * Useful traffic (non-zero payload + vector operands) over the full
     * bandwidth-time product: Fig 15's utilization metric.  Zero padding
     * inside locally-dense blocks streams but is not useful, which is
     * why utilization tracks in-block density.
     */
    double bandwidthUtilization() const;
    /** Fraction of execution time the cache port was busy (Fig 18). */
    double cacheTimeFraction() const;

    MemoryModel &memory() { return _memory; }
    Fcu &fcu() { return _fcu; }
    Rcu &rcu() { return _rcu; }
    const MemoryModel &memory() const { return _memory; }
    const Fcu &fcu() const { return _fcu; }
    const Rcu &rcu() const { return _rcu; }

    /** Reset all counters and cached state (matrix stays programmed). */
    void reset();

    stats::StatGroup &statGroup() { return _stats; }
    const stats::StatGroup &statGroup() const { return _stats; }

    /** Per-run cycle distribution (merged across engines at the
     *  multi-engine readout). */
    const stats::Distribution &runCycleDist() const { return _runCycles; }

    /**
     * Attach a snapshotter sampled after every run at the engine's
     * cumulative cycle count (pass nullptr to detach).  The caller
     * owns the snapshotter and must keep it alive while attached.
     * Sampling is run-granular: rows land on the first run boundary at
     * or past each interval multiple.
     */
    void setSnapshotter(stats::StatSnapshotter *snap)
    {
        _snapshotter = snap;
    }

  private:
    /** A cached schedule and its timing memo; both stay put until the
     *  schedule is evicted or invalidated. */
    struct Prepared
    {
        const ExecSchedule *sched = nullptr;
        TimingMemo *memo = nullptr;
    };
    /** prepareSchedule, with the schedule's memo. */
    Prepared prepare();

    /** The relaxation rounds: labels when @p zero_addend, skipping by
     *  @p active_chunks when it is given. */
    DenseVector relaxImpl(const DenseVector &dist, bool zero_addend,
                          const std::vector<uint8_t> *active_chunks,
                          RunTiming *timing);

    /** One run's timing walk: the charge rules every run shares
     *  (engine.cc). */
    class Walk;

    /** What a path's stream charges: the cycles it holds the stream
     *  front, their memory-side share (the rest is FCU issue), and the
     *  payload bytes it moves. */
    struct StreamTerm
    {
        uint64_t cycles = 0;
        uint64_t mem = 0;
        uint64_t bytes = 0;
    };
    /** The terms of streaming 0..omega occupied block rows, indexed by
     *  the row count: only those rows cross the bus and take FCU issue
     *  slots.  They depend on nothing else, so a walk computes them
     *  once instead of dividing per path. */
    std::vector<StreamTerm> rowStreamTerms() const;
    /** The term of streaming a whole block payload of @p payload
     *  values: one block row of omega operands issues per cycle, and
     *  the memory pipe may be the slower side for wide blocks. */
    StreamTerm blockStreamTerm(Index payload) const;
    /** The stream term of GEMV path @p i of @p S, whose store path
     *  holds @p rows records: their entry of @p row_terms when empty
     *  rows are skipped, else its block's whole payload
     *  (LocallyDenseMatrix::payloadSize).  Inline: the timing walk asks
     *  once per path. */
    StreamTerm gemvStreamTerm(const ExecSchedule &S, size_t i, size_t rows,
                              const std::vector<StreamTerm> &row_terms) const
    {
        if (_params.skipEmptyBlockRows)
            return row_terms[rows];
        return blockStreamTerm(LocallyDenseMatrix::payloadSize(
            _ld->layout(), S.blockRow[i] == S.blockCol[i], _ld->omega()));
    }

    /** Stage @p x into the aligned, chunk-padded gather-plan buffer
     *  (zero past @p x). */
    Value *stageOperand(const ExecSchedule &S, const DenseVector &x);

    AccelParams _params;
    MemoryModel _memory;
    Fcu _fcu;
    Rcu _rcu;

    const LocallyDenseMatrix *_ld = nullptr;
    const ConfigTable *_table = nullptr;

    /**
     * Schedule cache: MRU list keyed on the (matrix, table) generation
     * counters.  Generations are monotonic per constructed object, so
     * -- unlike the pointer-identity key this replaces -- a matrix or
     * table freed and reallocated at the same address can never hit a
     * schedule compiled from its predecessor.  The shape fingerprint
     * is kept as a belt-and-braces consistency check.  Content hashes
     * (stable across restarts, unlike generations) key the persisted
     * form of the cache.  A miss hashes its table, and its matrix only
     * when no live slot of the same matrix generation holds that hash
     * already (a PDE load's three tables share one matrix hash); hits
     * stay hash-free.  Hashing at miss time, not at save time, keeps
     * saveScheduleCache free of any handle to the keyed objects.
     *
     * All cache state (_schedules, _restored, _scheduleCompiles, the
     * eviction stat) is guarded by _scheduleMutex: concurrent lookups
     * through prepareSchedule are safe.  A pointer returned by a
     * lookup stays valid until that schedule is evicted or
     * invalidated, so threads sharing an engine must not run more
     * distinct tables at once than kScheduleCacheCapacity (a serving
     * fleet gives each matrix its own Accelerator and engine).
     */
    struct ScheduleSlot
    {
        uint64_t ldGen = 0;
        uint64_t tableGen = 0;
        uint64_t ldHash = 0;
        uint64_t tableHash = 0;
        size_t entryCount = 0;
        size_t blockCount = 0;
        size_t streamLen = 0;
        KernelType kernel = KernelType::SpMV;
        Index omega = 0;
        std::unique_ptr<ExecSchedule> sched;
        /** Created when the slot enters the MRU cache; never saved. */
        std::unique_ptr<TimingMemo> memo;
    };
    std::vector<ScheduleSlot> _schedules;
    /** Deserialized schedules not yet claimed by a miss: generations
     *  are unknown (0) until a content-hash match promotes one. */
    std::vector<ScheduleSlot> _restored;
    mutable std::mutex _scheduleMutex;
    uint64_t _scheduleCompiles = 0;
    uint64_t _scheduleHits = 0;
    uint64_t _timingMemoHits = 0;
    std::unique_ptr<ThreadPool> _hostPool;

    /** Operand staging scratch for the scheduled replay (gather plan):
     *  one padded vector, and for SpMM up to replay::kSpmmMaxRhs of
     *  them interleaved, with the interleaved results
     *  (replay::SpmmFn).  Reused across runs;
     *  parallel workers read the operands and write disjoint result
     *  rows. */
    AlignedValueVector _xpad;
    AlignedValueVector _xpadMulti;
    AlignedValueVector _ypadMulti;
    /** The sweep kernel's link stacks: one block row's GEMV partials
     *  (replay::SweepFn) for each participant of a sweep -- one for a
     *  serial sweep, one per host-pool thread for a level-parallel one
     *  (replay::sweepLevels). */
    AlignedValueVector _links;

    stats::Scalar _cycles;
    stats::Scalar _seqCycles;
    stats::Scalar _parCycles;
    stats::Scalar _seqFlops;
    stats::Scalar _parFlops;
    stats::Scalar _usefulBytes;
    stats::Scalar _runs;
    stats::Scalar _scheduleEvictions;
    stats::Distribution _runCycles;

    stats::StatSnapshotter *_snapshotter = nullptr;

    stats::StatGroup _stats;
};

} // namespace alr

#endif // ALR_ALRESCHA_SIM_ENGINE_HH
