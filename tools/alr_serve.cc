/**
 * @file
 * alr_serve: program-once/run-many serving driver.
 *
 * Load a fleet of matrices, warm (or restore from --cache-dir) their
 * compiled schedules, then drain a replayable Zipf request trace of
 * mixed SpMV/SymGS/PCG ops across worker threads, coalescing
 * same-matrix SpMV requests into SpMM batches.  Examples:
 *
 *   alr_serve --fleet 6 --requests 2000 --batch-window 8 --threads 4
 *   alr_serve --fleet 6 --cache-dir /tmp/fleet    # cold: compiles+saves
 *   alr_serve --fleet 6 --cache-dir /tmp/fleet    # warm: zero compiles
 *   alr_serve --fleet 4 --zipf 1.2 --burstiness 0.7 --json
 *   alr_serve --timeline serve.json --metrics-out m.json \
 *             --metrics-interval 250 --slo-us 5000 --json
 *
 * The JSON document reports schedule_compiles_warm (0 on a warm start
 * -- the CI cold-vs-warm step asserts exactly that), the batch-size
 * histogram, exact p50/p95/p99/p99.9 request latency overall and per
 * matrix, and SLO good/bad counts + burn rate against --slo-us.
 * --timeline records the request plane (one track per worker and per
 * accelerator) as Perfetto-loadable JSON; --metrics-out snapshots the
 * live metrics registry (JSON + Prometheus text next to it) every
 * --metrics-interval ms while the drain runs, atomically renamed so a
 * watcher never reads a torn file.
 */

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_parse.hh"

#include "alrescha/report.hh"
#include "alrescha/serve.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/timeline.hh"
#include "datasets/suites.hh"

using namespace alr;
using namespace alr::cli;

namespace {

/** A trace past 16M requests is a typo, not a workload (and gigabytes
 *  of per-request state). */
constexpr long kMaxRequests = long(1) << 24;

struct Options
{
    int fleet = 4;
    Index scale = 1;
    TraceParams trace;
    ServeConfig cfg;
    std::string cacheDir;
    Index omega = 8;
    bool json = false;
    std::string timelinePath;
    std::string metricsOut;
    /** Snapshot period, ms; 0 = only the final snapshot. */
    double metricsIntervalMs = 0.0;
    /** SLO latency target, us; 0 = no target (all requests good). */
    double sloUs = 0.0;
    double sloObjective = 0.99;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: alr_serve [--fleet N] [--scale N] [--omega N]\n"
        "                 [--requests N] [--zipf S] [--seed X]\n"
        "                 [--burstiness P] [--threads N]\n"
        "                 [--batch-window N] [--queue N] [--pcg-iters N]\n"
        "                 [--cache-dir DIR] [--json]\n"
        "                 [--timeline F.json] [--metrics-out F.json]\n"
        "                 [--metrics-interval MS] [--slo-us US]\n"
        "                 [--slo-objective P]\n"
        "  --fleet N          serve the first N scientific-suite matrices\n"
        "  --scale N          dataset scale multiplier\n"
        "  --requests N       trace length (default 1000)\n"
        "  --zipf S           matrix-popularity Zipf exponent (default 1)\n"
        "  --burstiness P     P(next request repeats the previous matrix)\n"
        "  --threads N        worker threads draining the queue\n"
        "  --batch-window N   SpMV coalescing window / max batch size\n"
        "                     (<= 1 disables batching)\n"
        "  --queue N          bounded admission-queue depth\n"
        "  --cache-dir DIR    restore <DIR>/<name>.sched before warming,\n"
        "                     save refreshed caches after (a second run\n"
        "                     against the same DIR warm-starts with zero\n"
        "                     schedule compiles)\n"
        "  --json             emit one JSON document on stdout\n"
        "  --timeline F       Perfetto-loadable request-plane timeline\n"
        "                     (one track per worker and per accelerator)\n"
        "  --metrics-out F    live metrics snapshots: JSON to F,\n"
        "                     Prometheus text exposition to F.prom,\n"
        "                     each atomically renamed into place\n"
        "  --metrics-interval MS  snapshot period while serving\n"
        "                     (default: only a final snapshot)\n"
        "  --slo-us US        latency SLO target; reports good/bad\n"
        "                     counts and burn rate from exact samples\n"
        "  --slo-objective P  availability objective for the burn rate\n"
        "                     (default 0.99)\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--fleet") {
            opt.fleet = int(parseInteger("--fleet", next(), 1, kMaxCount));
        } else if (arg == "--scale") {
            opt.scale = Index(parseInteger(
                "--scale", next(), 1, std::numeric_limits<Index>::max()));
        } else if (arg == "--omega") {
            opt.omega = Index(parseInteger("--omega", next(), 1, kMaxOmega));
        } else if (arg == "--requests") {
            opt.trace.requests = uint32_t(
                parseInteger("--requests", next(), 1, kMaxRequests));
        } else if (arg == "--zipf") {
            opt.trace.zipfS = parseReal("--zipf", next(), 0.0, HUGE_VAL);
        } else if (arg == "--seed") {
            opt.trace.seed = uint64_t(parseInteger(
                "--seed", next(), 0, std::numeric_limits<long>::max()));
        } else if (arg == "--burstiness") {
            opt.trace.burstiness =
                parseReal("--burstiness", next(), 0.0, 1.0);
        } else if (arg == "--threads") {
            opt.cfg.threads =
                int(parseInteger("--threads", next(), 1, kMaxThreads));
        } else if (arg == "--batch-window") {
            opt.cfg.batchWindow =
                uint32_t(parseInteger("--batch-window", next(), 0, kMaxCount));
        } else if (arg == "--queue") {
            opt.cfg.queueDepth =
                size_t(parseInteger("--queue", next(), 1, kMaxCount));
        } else if (arg == "--pcg-iters") {
            opt.cfg.pcgIterations =
                int(parseInteger("--pcg-iters", next(), 1, kMaxCount));
        } else if (arg == "--cache-dir") {
            opt.cacheDir = next();
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--timeline") {
            opt.timelinePath = next();
        } else if (arg == "--metrics-out") {
            opt.metricsOut = next();
        } else if (arg == "--metrics-interval") {
            opt.metricsIntervalMs = parseReal("--metrics-interval", next(),
                                              0.0, HUGE_VAL, true);
        } else if (arg == "--slo-us") {
            opt.sloUs = parseReal("--slo-us", next(), 0.0, HUGE_VAL, true);
        } else if (arg == "--slo-objective") {
            opt.sloObjective =
                parseReal("--slo-objective", next(), 0.0, 1.0, true);
        } else {
            usage();
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    AccelParams params;
    params.omega = opt.omega;

    ServeFleet fleet(params);
    std::vector<Dataset> suite = scientificSuite(opt.scale);
    if (size_t(opt.fleet) > suite.size())
        fatal("--fleet %d exceeds the %zu scientific-suite matrices",
              opt.fleet, suite.size());
    for (int i = 0; i < opt.fleet; ++i)
        fleet.add(suite[size_t(i)].name, suite[size_t(i)].matrix, true);

    size_t restored = 0;
    if (!opt.cacheDir.empty())
        restored = fleet.restoreScheduleCaches(opt.cacheDir);

    uint64_t compilesBefore = fleet.scheduleCompiles();
    fleet.warmSchedules();
    uint64_t warmCompiles = fleet.scheduleCompiles() - compilesBefore;

    if (!opt.cacheDir.empty())
        fleet.saveScheduleCaches(opt.cacheDir);

    std::vector<ServeRequest> trace =
        generateTrace(opt.trace, fleet.pdeMask());

    metrics::Registry registry;
    std::string promPath =
        opt.metricsOut.empty() ? "" : opt.metricsOut + ".prom";
    if (!opt.metricsOut.empty())
        opt.cfg.metrics = &registry;

    // Periodic snapshot publisher: samples the live registry while the
    // workers drain, so a watcher tailing --metrics-out sees progress
    // mid-run.  The final (post-drain) snapshot is always written.
    std::thread snapshotThread;
    std::mutex snapMutex;
    std::condition_variable snapCv;
    bool snapStop = false;
    if (!opt.metricsOut.empty() && opt.metricsIntervalMs > 0.0) {
        snapshotThread = std::thread([&] {
            std::unique_lock<std::mutex> lock(snapMutex);
            auto period = std::chrono::duration<double, std::milli>(
                opt.metricsIntervalMs);
            while (!snapCv.wait_for(lock, period, [&] { return snapStop; }))
                registry.writeSnapshotFiles(opt.metricsOut, promPath);
        });
    }

    // Arm the request-plane recorder just before the drain so the trace
    // is one serve run, not warm-up noise.  Only host + serve events:
    // the drain replays the engine hundreds of times, and per-replay
    // modeled events would flood the ring and bury the request story.
    if (!opt.timelinePath.empty()) {
        timeline::setPidMask((1u << timeline::kPidHost) |
                             (1u << timeline::kPidServe));
        timeline::setEnabled(true);
    }

    ServeResult res = serve(fleet, trace, opt.cfg);

    if (!opt.timelinePath.empty())
        timeline::setEnabled(false);
    if (snapshotThread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(snapMutex);
            snapStop = true;
        }
        snapCv.notify_all();
        snapshotThread.join();
    }
    if (!opt.metricsOut.empty())
        registry.writeSnapshotFiles(opt.metricsOut, promPath);

    SloReport slo =
        computeSlo(res, trace, fleet, opt.sloUs, opt.sloObjective);

    if (opt.json) {
        writeServeReportJson(std::cout, fleet, opt.cfg, res, slo,
                             {.requests = trace.size(),
                              .schedulesRestored = restored,
                              .warmCompiles = warmCompiles,
                              .simdMode = params.simdMode});
        std::cout.flush();
    } else {
        std::printf("fleet: %zu matrices (scale %u, omega %u)\n",
                    fleet.size(), opt.scale, opt.omega);
        for (size_t i = 0; i < fleet.size(); ++i)
            std::printf("  [%zu] %-16s %u x %u, %u nnz\n", i,
                        fleet.nameOf(i).c_str(), fleet.at(i).matrix().rows(),
                        fleet.at(i).matrix().rows(),
                        suite[i].matrix.nnz());
        if (!opt.cacheDir.empty())
            std::printf("schedule caches: %zu restored from %s\n", restored,
                        opt.cacheDir.c_str());
        std::printf("warm-up: %llu schedule compiles%s\n",
                    (unsigned long long)warmCompiles,
                    warmCompiles == 0 ? " (warm start)" : "");
        std::printf("trace: %zu requests, zipf %.2f, burstiness %.2f, "
                    "seed %llu\n",
                    trace.size(), opt.trace.zipfS, opt.trace.burstiness,
                    (unsigned long long)opt.trace.seed);
        std::printf("served %llu requests as %llu work items "
                    "(window %u, %d threads)\n",
                    (unsigned long long)res.completed,
                    (unsigned long long)res.workItems, opt.cfg.batchWindow,
                    opt.cfg.threads);
        std::printf("  %.1f req/s, wall %.1f ms\n", res.requestsPerSec,
                    res.wallMs);
        std::printf("  latency p50 %.1f us, p95 %.1f us, p99 %.1f us, "
                    "p99.9 %.1f us (exact)\n",
                    slo.total.p50, slo.total.p95, slo.total.p99,
                    slo.total.p999);
        if (opt.sloUs > 0.0)
            std::printf("  slo %.0f us: %llu good, %llu bad "
                        "(%.4f%% bad, burn rate %.2f @ %.2f%%)\n",
                        opt.sloUs, (unsigned long long)slo.total.good,
                        (unsigned long long)slo.total.bad,
                        slo.badFraction() * 100.0, slo.burnRate(),
                        opt.sloObjective * 100.0);
        std::printf("  queue: high water %zu, blocked pushes %llu\n",
                    res.queueHighWater,
                    (unsigned long long)res.queueBlockedPushes);
        if (res.batchSize.count())
            std::printf("  spmv batches: %llu, mean size %.2f, max %.0f\n",
                        (unsigned long long)res.batchSize.count(),
                        res.batchSize.mean(), res.batchSize.max());
        uint64_t evictions = 0;
        for (size_t i = 0; i < fleet.size(); ++i)
            evictions += fleet.at(i).engine().scheduleEvictions();
        std::printf("  modeled cycles %llu, evictions %llu\n",
                    (unsigned long long)fleet.totalCycles(),
                    (unsigned long long)evictions);
    }

    if (!opt.timelinePath.empty()) {
        std::ofstream tf(opt.timelinePath);
        if (!tf)
            fatal("cannot create timeline file '%s'",
                  opt.timelinePath.c_str());
        timeline::exportChromeTrace(tf);
        if (!opt.json)
            std::printf("timeline written to %s (%llu events, %llu "
                        "dropped)\n",
                        opt.timelinePath.c_str(),
                        (unsigned long long)timeline::events().size(),
                        (unsigned long long)timeline::dropped());
    }
    if (!opt.metricsOut.empty() && !opt.json)
        std::printf("metrics written to %s (+ %s, %llu snapshots)\n",
                    opt.metricsOut.c_str(), promPath.c_str(),
                    (unsigned long long)registry.snapshots());
    return 0;
}
