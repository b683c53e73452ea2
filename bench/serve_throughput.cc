/**
 * @file
 * Serving-mode throughput: drain a replayable Zipf request trace over a
 * small fleet with SpMV batching off vs on (single worker thread, so
 * the req/s ratio isolates coalescing), plus a mixed-op pass for
 * coverage.  Emits BENCH_serve.json: modeled counters are exact
 * regression anchors; wall-clock req/s and latency percentiles (exact,
 * over every request) are informational.  Each side of a wall-clock
 * gate drains kRepeats times, alternating with the other sides, each
 * on a fresh fleet, and the gates compare median drains.  Exits 1 when
 * the repeats of a drain model different results, when observability
 * perturbs the modeled results or costs over 25% wall time, or when
 * batching changes a checksum, saves no work items or cycles, or is
 * not faster.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "alrescha/serve.hh"
#include "bench/bench_util.hh"
#include "common/metrics.hh"
#include "common/timeline.hh"

using namespace alr;
using namespace alr::bench;

namespace {

constexpr int kFleet = 4;

/** Drains per side of each wall-clock gate: one drain lasts ~150 ms,
 *  short enough for host noise to decide a single comparison. */
constexpr int kRepeats = 5;

ServeFleet
makeFleet(const std::vector<Dataset> &suite)
{
    ServeFleet fleet;
    for (int i = 0; i < kFleet; ++i)
        fleet.add(suite[size_t(i)].name, suite[size_t(i)].matrix, true);
    fleet.warmSchedules();
    return fleet;
}

struct Pass
{
    ServeResult res;
    uint64_t cycles = 0;
    double bytes = 0.0;
    uint64_t compiles = 0;
    uint64_t evictions = 0;
};

/** One serving pass on a fresh fleet (modeled counters independent of
 *  any earlier pass). */
Pass
runPass(const std::vector<Dataset> &suite, const TraceParams &tp,
        uint32_t batch_window)
{
    ServeFleet fleet = makeFleet(suite);
    std::vector<ServeRequest> trace = generateTrace(tp, fleet.pdeMask());
    ServeConfig cfg;
    cfg.threads = 1;
    cfg.batchWindow = batch_window;
    cfg.pcgIterations = 8;

    Pass p;
    p.res = serve(fleet, trace, cfg);
    p.cycles = fleet.totalCycles();
    p.compiles = fleet.scheduleCompiles();
    for (size_t i = 0; i < fleet.size(); ++i) {
        p.bytes += fleet.at(i).engine().memory().bytesStreamed();
        p.evictions += fleet.at(i).engine().scheduleEvictions();
    }
    return p;
}

/** The batched SpMV pass again with the full serve observability
 *  surface live -- request-plane tracing (pid-masked to the host and
 *  serve planes, exactly as alr_serve configures it) plus a bound
 *  metrics registry.  The zero-perturbation contract says the modeled
 *  outputs must be bit-identical to the untraced pass and the wall
 *  overhead modest; main() gates both. */
Pass
runObservedPass(const std::vector<Dataset> &suite, const TraceParams &tp,
                uint32_t batch_window, metrics::Registry &registry)
{
    ServeFleet fleet = makeFleet(suite);
    std::vector<ServeRequest> trace = generateTrace(tp, fleet.pdeMask());
    ServeConfig cfg;
    cfg.threads = 1;
    cfg.batchWindow = batch_window;
    cfg.pcgIterations = 8;
    cfg.metrics = &registry;

    timeline::reset();
    timeline::setPidMask((1u << timeline::kPidHost) |
                         (1u << timeline::kPidServe));
    timeline::setEnabled(true);

    Pass p;
    p.res = serve(fleet, trace, cfg);

    timeline::setEnabled(false);
    timeline::setPidMask(~0u);
    timeline::reset();

    p.cycles = fleet.totalCycles();
    p.compiles = fleet.scheduleCompiles();
    for (size_t i = 0; i < fleet.size(); ++i) {
        p.bytes += fleet.at(i).engine().memory().bytesStreamed();
        p.evictions += fleet.at(i).engine().scheduleEvictions();
    }
    return p;
}

/** True when @p a and @p b drained to the same modeled outcome:
 *  per-request checksums and cycles, and the fleet's counters. */
bool
sameModel(const Pass &a, const Pass &b)
{
    return a.res.checksums == b.res.checksums &&
           a.res.modeledCycles == b.res.modeledCycles &&
           a.res.completed == b.res.completed &&
           a.res.workItems == b.res.workItems && a.cycles == b.cycles &&
           a.bytes == b.bytes && a.compiles == b.compiles &&
           a.evictions == b.evictions;
}

/** The drain of @p passes with the median wall time. */
const Pass &
medianPass(const std::vector<Pass> &passes)
{
    std::vector<size_t> order(passes.size());
    std::iota(order.begin(), order.end(), size_t(0));
    const auto mid = order.begin() + std::ptrdiff_t(order.size() / 2);
    std::nth_element(order.begin(), mid, order.end(),
                     [&](size_t a, size_t b) {
                         return passes[a].res.wallMs < passes[b].res.wallMs;
                     });
    return passes[*mid];
}

/** The exact @p pct-th percentile of @p p's request latencies, ns. */
double
latencyNs(const Pass &p, double pct)
{
    return metrics::exactPercentile(p.res.latencyUs, pct) * 1e3;
}

json::Value
rowOf(const char *name, const Pass &p)
{
    double checksum = 0.0;
    for (double c : p.res.checksums)
        checksum += c;
    uint64_t reqCycles = 0;
    for (uint64_t c : p.res.modeledCycles)
        reqCycles += c;

    json::Value stats = json::Value::object();
    stats.set("completed", p.res.completed)
        .set("work_items", p.res.workItems)
        .set("schedule_compiles", p.compiles)
        .set("schedule_evictions", p.evictions)
        .set("checksum_sum", checksum)
        .set("request_cycles", reqCycles);

    json::Value row = json::Value::object();
    row.set("name", name)
        .set("suite", "serve")
        .set("wall_ms", p.res.wallMs)
        .set("cycles", p.cycles)
        .set("bytes_streamed", p.bytes)
        .set("requests_per_sec", p.res.requestsPerSec)
        .set("latency_p50_ns", latencyNs(p, 50))
        .set("latency_p95_ns", latencyNs(p, 95))
        .set("latency_p99_ns", latencyNs(p, 99))
        .set("stats", std::move(stats));
    return row;
}

json::Value
histogramJson(const stats::Distribution &d)
{
    // Batch sizes are small integers; report the occupied log2 buckets
    // as "upper_edge: count" pairs.
    json::Value h = json::Value::object();
    for (size_t b = 0; b < stats::Distribution::kBuckets; ++b) {
        if (!d.buckets()[b])
            continue;
        h.set(std::to_string(1ull << b), d.buckets()[b]);
    }
    return h;
}

} // namespace

int
main()
{
    std::printf("== Serving throughput: batched vs unbatched ==\n\n");
    std::vector<Dataset> suite = scientificSuite();

    // Pure-SpMV trace isolates the coalescing win; the mixed trace
    // covers the full op dispatch (SymGS sweeps, PCG solves).
    TraceParams spmvTrace;
    spmvTrace.requests = 500;
    spmvTrace.burstiness = 0.7;
    spmvTrace.spmvWeight = 1.0;
    spmvTrace.symgsWeight = 0.0;
    spmvTrace.pcgWeight = 0.0;

    TraceParams mixedTrace;
    mixedTrace.requests = 150;
    mixedTrace.burstiness = 0.6;

    // The gated sides -- batching off, on, and on with observability
    // -- drain alternately, so a slow spell of the host lands on every
    // side alike, and every repeat must model exactly the same.
    std::vector<Pass> offs, ons, observed;
    for (int r = 0; r < kRepeats; ++r) {
        offs.push_back(runPass(suite, spmvTrace, 1));
        ons.push_back(runPass(suite, spmvTrace, 8));
        metrics::Registry registry;
        observed.push_back(
            runObservedPass(suite, spmvTrace, 8, registry));
        double done = 0.0;
        const uint64_t completed = observed.back().res.completed;
        if (!registry.lookup(serve_metric::kRequestsCompleted, {}, &done) ||
            uint64_t(done) != completed) {
            std::printf("ERROR: metrics registry completed=%g, drain "
                        "completed=%llu\n", done,
                        (unsigned long long)completed);
            return 1;
        }
    }
    for (const std::vector<Pass> *side : {&offs, &ons, &observed}) {
        for (const Pass &p : *side) {
            if (!sameModel(p, side->front())) {
                std::printf("ERROR: repeated drains of one trace "
                            "modeled different results\n");
                return 1;
            }
        }
    }
    const Pass &off = medianPass(offs);
    const Pass &on = medianPass(ons);
    const Pass &obs = medianPass(observed);
    Pass mixed = runPass(suite, mixedTrace, 8);

    double speedup =
        off.res.wallMs > 0.0 ? off.res.wallMs / on.res.wallMs : 0.0;

    // Zero-perturbation gate (hard): the observed pass replays the
    // same trace, so every per-request checksum, every per-request
    // modeled cycle count, and the fleet cycle total must be
    // bit-identical with observability on.
    if (obs.res.checksums != on.res.checksums ||
        obs.res.modeledCycles != on.res.modeledCycles ||
        obs.cycles != on.cycles) {
        std::printf("ERROR: observability perturbed the modeled "
                    "results (checksums/cycles differ)\n");
        return 1;
    }

    // Wall overhead of tracing + live metrics on the serve path, median
    // drain against median drain.  The headline target is a few
    // percent; the hard gate is generous (same 25%% bound abl_schedule
    // uses for the timeline) so a noisy single-core CI runner cannot
    // flake it.
    double overhead =
        on.res.wallMs > 0.0
            ? (obs.res.wallMs - on.res.wallMs) / on.res.wallMs
            : 0.0;

    Table table({"pass", "req/s", "work items", "mean batch",
                 "modeled Mcyc", "p95 us"});
    auto addRow = [&](const char *name, const Pass &p) {
        table.addRow({name, fmt(p.res.requestsPerSec, 0),
                      std::to_string(p.res.workItems),
                      p.res.batchSize.count()
                          ? fmt(p.res.batchSize.mean(), 2)
                          : "-",
                      fmt(double(p.cycles) / 1e6, 2),
                      fmt(latencyNs(p, 95) / 1e3, 0)});
    };
    addRow("spmv batch off", off);
    addRow("spmv batch on", on);
    addRow("mixed batch on", mixed);
    addRow("spmv batch on +obs", obs);
    table.print();
    std::printf("\nbatching speedup (single-thread wall, median of %d "
                "drains): %.2fx\n",
                kRepeats, speedup);
    std::printf("observability overhead (tracing + metrics, median of "
                "%d drains): %.1f%%\n",
                kRepeats, overhead * 100.0);
    if (overhead > 0.25) {
        std::printf("ERROR: serve-path observability overhead %.1f%% "
                    "exceeds the 25%% gate\n", overhead * 100.0);
        return 1;
    }

    // Batching gate (hard): coalescing must return every request's
    // checksum unchanged, in fewer work items and modeled cycles, and
    // the single-thread drain must be faster on the wall clock.
    if (on.res.checksums != off.res.checksums) {
        std::printf("ERROR: batching changed request checksums\n");
        return 1;
    }
    if (on.res.workItems >= off.res.workItems || on.cycles >= off.cycles) {
        std::printf("ERROR: batching saved no work items or cycles "
                    "(%llu -> %llu items, %llu -> %llu cycles)\n",
                    (unsigned long long)off.res.workItems,
                    (unsigned long long)on.res.workItems,
                    (unsigned long long)off.cycles,
                    (unsigned long long)on.cycles);
        return 1;
    }
    if (!(speedup > 1.0)) {
        std::printf("ERROR: batching speedup %.2fx is not above 1x\n",
                    speedup);
        return 1;
    }

    json::Value rows = json::Value::array();
    rows.append(rowOf("spmv_batch_off", off));
    rows.append(rowOf("spmv_batch_on", on));
    rows.append(rowOf("mixed", mixed));
    rows.append(rowOf("spmv_batch_on_observed", obs));

    json::Value root = benchDocument("serve_throughput");
    root.set("fleet", kFleet)
        .set("datasets", std::move(rows))
        .set("batch_speedup_wall", speedup)
        .set("observability_overhead_wall", overhead)
        .set("batch_size_histogram", histogramJson(on.res.batchSize));
    writeJsonFile("BENCH_serve.json", root);

    std::printf("\nCoalescing same-matrix SpMVs streams the matrix once\n"
                "per batch instead of once per request: modeled cycles\n"
                "and host replay wall time both drop with the window.\n");
    return 0;
}
