/**
 * @file
 * Program-once/run-many serving (ROADMAP item 2): a fleet of loaded
 * matrices, schedules compiled once (or restored from a persisted
 * cache -- zero compiles on a warm start), draining a concurrent
 * request stream of mixed SpMV/SymGS/PCG ops through a bounded
 * admission queue, with same-matrix SpMV requests coalesced into SpMM
 * batches.
 *
 * Determinism contract (the equivalence suite pins all of it):
 *  - the batching plan is a pure function of (trace, batchWindow) --
 *    never of thread count, queue depth, or timing;
 *  - per-matrix work executes in plan order (an item that reaches a
 *    worker before its matrix's turn is parked, and runs when the
 *    matrix's previous item finishes), so each accelerator sees the
 *    identical run sequence at any thread count: per-request results
 *    AND modeled counters are bit-identical whether the stream drains
 *    on 1 thread or 16;
 *  - a coalesced SpMV request's result is bit-identical to its
 *    unbatched run (the SpMM replay issues each RHS through the same
 *    canonical reduction tree as SpMV);
 *  - with batching off, the drained stream is bit-identical -- results
 *    and modeled counters -- to a plain serial loop over the same
 *    requests.
 * Batching does change the fleet's modeled totals (that is the win:
 * the matrix streams once per batch); per-request modeled latency is
 * attributed as batch cycles / batch size (docs/MODELING.md).
 */

#ifndef ALR_ALRESCHA_SERVE_HH
#define ALR_ALRESCHA_SERVE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "common/metrics.hh"
#include "common/stats.hh"

namespace alr {

/** Operations a serving request can ask for. */
enum class ServeOp : uint8_t { Spmv, Symgs, Pcg };

const char *toString(ServeOp op);

/** One request in arrival order. */
struct ServeRequest
{
    uint32_t id = 0;     ///< dense trace position, 0..n-1
    uint32_t matrix = 0; ///< fleet index
    ServeOp op = ServeOp::Spmv;
};

/** Knobs of the replayable trace generator. */
struct TraceParams
{
    uint32_t requests = 1000;
    /** Zipf exponent of matrix popularity (0 = uniform). */
    double zipfS = 1.0;
    uint64_t seed = 42;
    /** Probability the next request re-targets the previous matrix:
     *  bursty same-matrix arrivals, the regime batching exploits. */
    double burstiness = 0.5;
    /** Op mix weights (normalized internally). */
    double spmvWeight = 0.85;
    double symgsWeight = 0.10;
    double pcgWeight = 0.05;
};

/**
 * Generate a replayable request trace: seeded Zipf over matrices,
 * bursty arrivals, mixed ops.  @p pde_mask flags which fleet entries
 * carry SymGS/PCG tables; requests drawn for entries without them are
 * forced to SpMV.  Pure function of its arguments.
 */
std::vector<ServeRequest> generateTrace(const TraceParams &params,
                                        const std::vector<uint8_t> &pde_mask);

/**
 * The fleet: one long-lived Accelerator per matrix.  An Engine is
 * single-driver, so serve() runs at most one item per entry at a time:
 * distinct matrices serve concurrently while one matrix's requests
 * serialize in plan order.  The fleet holds no drain state, so it can
 * be drained any number of times.
 */
class ServeFleet
{
  public:
    explicit ServeFleet(const AccelParams &params = {});

    /** Load @p a as fleet entry @p name; @p pde selects the PDE load
     *  path (SymGS/PCG-capable) vs SpMV-only. */
    void add(const std::string &name, const CsrMatrix &a, bool pde);

    size_t size() const { return _entries.size(); }
    Accelerator &at(size_t i) { return *_entries[i]->acc; }
    const Accelerator &at(size_t i) const { return *_entries[i]->acc; }
    const std::string &nameOf(size_t i) const { return _entries[i]->name; }
    std::vector<uint8_t> pdeMask() const;

    /**
     * Compile (or claim from a restored cache) every schedule the
     * serving ops replay: the SpMV table always, plus both SymGS
     * sweeps for PDE entries.  Pure warm-up -- touches no stats.
     */
    void warmSchedules();

    /** Total compileSchedule calls across the fleet. */
    uint64_t scheduleCompiles() const;
    /** Total modeled cycles across the fleet. */
    uint64_t totalCycles() const;

    /**
     * Persist every entry's schedule cache as <dir>/<name>.sched (next
     * to where alr_serve saves <name>.alr program images).  Returns
     * the number of entries saved.
     */
    size_t saveScheduleCaches(const std::string &dir) const;
    /** Restore <dir>/<name>.sched for every entry; missing files are
     *  skipped (cold entries compile as usual).  Returns the number of
     *  files restored. */
    size_t restoreScheduleCaches(const std::string &dir);

  private:
    struct Entry
    {
        std::string name;
        std::unique_ptr<Accelerator> acc;
        bool pde = false;
    };

    AccelParams _params;
    std::vector<std::unique_ptr<Entry>> _entries;
};

/**
 * Names of the request-plane metrics serve() registers when
 * ServeConfig::metrics is set: one definition for the emitter, for the
 * readers that look them up, and for the artifact checker.
 */
namespace serve_metric {
/** Counter: requests drained to completion. */
inline constexpr const char *kRequestsCompleted = "serve_requests_completed";
/** Histogram: admission-to-completion wall latency per request, us;
 *  also once per matrix, labeled {"matrix", name}. */
inline constexpr const char *kLatencyUs = "serve_latency_us";
/** Histogram: admission-to-dequeue wall wait per request, us. */
inline constexpr const char *kQueueWaitUs = "serve_queue_wait_us";
} // namespace serve_metric

/** Serving-loop knobs. */
struct ServeConfig
{
    /** Worker threads draining the queue. */
    int threads = 1;
    /** Bounded admission-queue depth (producer back-pressure). */
    size_t queueDepth = 64;
    /**
     * Batching window: how far ahead in the arrival stream same-matrix
     * SpMV requests may be coalesced into one SpMM batch (also the
     * maximum batch size).  <= 1 disables batching.
     */
    uint32_t batchWindow = 1;
    /** PCG iteration cap per request (serving-sized solves). */
    int pcgIterations = 20;
    /** Seed for the per-request deterministic RHS vectors. */
    uint64_t rhsSeed = 7;
    /** Keep full per-request result vectors (equivalence tests). */
    bool keepResults = false;
    /**
     * Live metrics sink (nullable).  When set, workers observe queue
     * wait / end-to-end latency / batch size into the registry as they
     * complete requests, and serve() publishes queue pressure and
     * per-matrix engine counters (modeled cycles/bytes, schedule-cache
     * hits/compiles/evictions) at drain time -- so a watcher sampling
     * the registry mid-run sees live progress.  Never perturbs modeled
     * state: the registry only observes values serve() computes anyway.
     */
    metrics::Registry *metrics = nullptr;
};

/** One work item of the deterministic batching plan. */
struct ServeWorkItem
{
    uint32_t matrix = 0;
    ServeOp op = ServeOp::Spmv;
    /** Coalesced request ids, in arrival order (>1 only for SpMV). */
    std::vector<uint32_t> requestIds;
    /** Per-matrix plan-order sequence number, from 0 in every plan:
     *  a matrix runs its items in seq order. */
    uint64_t seq = 0;
};

/**
 * The batching plan: walk the trace in arrival order; each SpMV
 * request not yet claimed anchors a batch and absorbs same-matrix
 * SpMV requests from the next (batchWindow - 1) arrivals; SymGS/PCG
 * requests run alone.  Pure function of (trace, batchWindow).
 */
std::vector<ServeWorkItem> buildServePlan(
    const std::vector<ServeRequest> &trace, uint32_t batch_window);

/** Outcome of draining one trace. */
struct ServeResult
{
    uint64_t completed = 0;
    uint64_t workItems = 0;
    double wallMs = 0.0;
    double requestsPerSec = 0.0;
    /** Coalesced request count per executed SpMV batch. */
    stats::Distribution batchSize;
    /** Per-request result checksum (sum of the output vector),
     *  indexed by request id. */
    std::vector<double> checksums;
    /** Per-request modeled cycles: the run's cycles split across a
     *  batch's coalesced requests as an integer quotient, plus one for
     *  each of the first (cycles mod k) of them, so they sum exactly to
     *  the run's cycles (docs/MODELING.md). */
    std::vector<uint64_t> modeledCycles;
    /** Full result vectors, keepResults only (indexed by id). */
    std::vector<DenseVector> results;
    /** Exact wall-clock admission-to-completion latency per request,
     *  microseconds, indexed by id (a batch's requests share their
     *  batch's wall latency).  Every latency percentile is an exact
     *  one over these samples (metrics::exactPercentile). */
    std::vector<double> latencyUs;
    /** Exact wall-clock admission-to-dequeue wait per request,
     *  microseconds, indexed by id. */
    std::vector<double> queueWaitUs;
    /** Admission-queue pressure over the drain. */
    size_t queueHighWater = 0;
    uint64_t queueBlockedPushes = 0;
    uint64_t queueRejects = 0;
};

/** Exact-latency percentile row of an SLO report: the whole stream
 *  ("all") or one matrix's slice of it. */
struct SloBucket
{
    std::string name;
    uint64_t requests = 0;
    /** Requests with latency <= / > the SLO target (good == requests
     *  when no target was set). */
    uint64_t good = 0;
    uint64_t bad = 0;
    /** Exact percentiles over this slice's latencyUs samples. */
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** SLO accounting over a drained trace's exact latency samples. */
struct SloReport
{
    /** Latency target, us (<= 0: no target; everything counts good). */
    double sloUs = 0.0;
    /** Availability objective the burn rate is measured against. */
    double objective = 0.99;
    SloBucket total;
    /** One bucket per fleet entry, fleet order (empty slices kept, so
     *  rows line up with the fleet). */
    std::vector<SloBucket> perMatrix;

    double badFraction() const
    {
        return total.requests == 0
                   ? 0.0
                   : double(total.bad) / double(total.requests);
    }
    /** Error-budget burn rate: badFraction / (1 - objective); 1.0
     *  means exactly consuming the budget, > 1 burning it down. */
    double burnRate() const
    {
        double budget = 1.0 - objective;
        return budget > 0.0 ? badFraction() / budget : 0.0;
    }
};

/**
 * SLO accounting from exact per-request samples (res.latencyUs --
 * never the log2-bucketed distribution): good/bad counts against
 * @p slo_us, burn rate against @p objective, and exact
 * p50/p95/p99/p99.9 overall and per matrix.
 */
SloReport computeSlo(const ServeResult &res,
                     const std::vector<ServeRequest> &trace,
                     const ServeFleet &fleet, double slo_us,
                     double objective = 0.99);

/** The RHS vector served for request @p id: a pure function of
 *  (seed, id, n), so an unbatched reference run can reproduce any
 *  request's input exactly. */
DenseVector serveRequestRhs(uint64_t seed, uint32_t id, Index n);

/**
 * Drain @p trace against @p fleet: requests flow through a bounded
 * admission queue to cfg.threads workers; per-matrix work executes in
 * plan order (see the determinism contract above).  The drain is
 * work-conserving: a worker that pops an item whose matrix is busy, or
 * not yet at the item's turn, parks the item with its matrix and pops
 * the next one, and the worker that finishes a matrix's item runs the
 * matrix's next item if it is parked.  Parked items sit outside the
 * admission queue, so its depth bounds only the admitted items no
 * worker has popped; parked ones are bounded by the plan.  The RHS of
 * request r is serveRequestRhs(cfg.rhsSeed, r.id, n).
 */
ServeResult serve(ServeFleet &fleet, const std::vector<ServeRequest> &trace,
                  const ServeConfig &cfg);

} // namespace alr

#endif // ALR_ALRESCHA_SERVE_HH
