#include "alrescha/serve.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/request_queue.hh"
#include "common/timeline.hh"

namespace alr {

const char *
toString(ServeOp op)
{
    switch (op) {
      case ServeOp::Spmv:  return "spmv";
      case ServeOp::Symgs: return "symgs";
      case ServeOp::Pcg:   return "pcg";
    }
    return "?";
}

std::vector<ServeRequest>
generateTrace(const TraceParams &params,
              const std::vector<uint8_t> &pde_mask)
{
    ALR_ASSERT(!pde_mask.empty(), "empty fleet");
    Rng rng(params.seed);
    ZipfSampler zipf(uint32_t(pde_mask.size()), params.zipfS);

    double wsum =
        params.spmvWeight + params.symgsWeight + params.pcgWeight;
    ALR_ASSERT(wsum > 0.0, "op mix weights sum to zero");
    double pSpmv = params.spmvWeight / wsum;
    double pSymgs = params.symgsWeight / wsum;

    std::vector<ServeRequest> trace;
    trace.reserve(params.requests);
    uint32_t prevMatrix = 0;
    for (uint32_t i = 0; i < params.requests; ++i) {
        ServeRequest r;
        r.id = i;
        // Bursty arrivals: with probability `burstiness` the stream
        // stays on the previous matrix (clients issue runs of work
        // against one operator); otherwise draw fresh from the Zipf
        // popularity distribution.
        r.matrix = (i > 0 && rng.nextDouble() < params.burstiness)
                       ? prevMatrix
                       : zipf.sample(rng);
        prevMatrix = r.matrix;
        double u = rng.nextDouble();
        r.op = u < pSpmv              ? ServeOp::Spmv
               : u < pSpmv + pSymgs   ? ServeOp::Symgs
                                      : ServeOp::Pcg;
        if (!pde_mask[r.matrix])
            r.op = ServeOp::Spmv; // entry carries no SymGS/PCG tables
        trace.push_back(r);
    }
    return trace;
}

ServeFleet::ServeFleet(const AccelParams &params) : _params(params) {}

void
ServeFleet::add(const std::string &name, const CsrMatrix &a, bool pde)
{
    auto e = std::make_unique<Entry>();
    e->name = name;
    e->acc = std::make_unique<Accelerator>(_params);
    e->pde = pde;
    if (pde)
        e->acc->loadPde(a);
    else
        e->acc->loadSpmvOnly(a);
    _entries.push_back(std::move(e));
}

std::vector<uint8_t>
ServeFleet::pdeMask() const
{
    std::vector<uint8_t> mask;
    mask.reserve(_entries.size());
    for (const auto &e : _entries)
        mask.push_back(e->pde ? 1 : 0);
    return mask;
}

void
ServeFleet::warmSchedules()
{
    for (const auto &e : _entries) {
        Accelerator &acc = *e->acc;
        Engine &eng = acc.engine();
        eng.program(&acc.matrix(), &acc.table(KernelType::SpMV));
        eng.prepareSchedule();
        if (e->pde) {
            eng.program(&acc.matrix(),
                        &acc.table(KernelType::SymGS, GsSweep::Forward));
            eng.prepareSchedule();
            eng.program(&acc.matrix(),
                        &acc.table(KernelType::SymGS, GsSweep::Backward));
            eng.prepareSchedule();
        }
    }
}

uint64_t
ServeFleet::scheduleCompiles() const
{
    uint64_t total = 0;
    for (const auto &e : _entries)
        total += e->acc->engine().scheduleCompiles();
    return total;
}

uint64_t
ServeFleet::totalCycles() const
{
    uint64_t total = 0;
    for (const auto &e : _entries)
        total += e->acc->engine().totalCycles();
    return total;
}

size_t
ServeFleet::saveScheduleCaches(const std::string &dir) const
{
    size_t saved = 0;
    for (const auto &e : _entries) {
        if (e->acc->engine().saveScheduleCacheFile(dir + "/" + e->name +
                                                   ".sched"))
            ++saved;
    }
    return saved;
}

size_t
ServeFleet::restoreScheduleCaches(const std::string &dir)
{
    size_t restored = 0;
    for (const auto &e : _entries) {
        if (e->acc->engine().loadScheduleCacheFile(dir + "/" + e->name +
                                                    ".sched"))
            ++restored;
    }
    return restored;
}

std::vector<ServeWorkItem>
buildServePlan(const std::vector<ServeRequest> &trace,
               uint32_t batch_window)
{
    std::vector<ServeWorkItem> plan;
    std::vector<uint8_t> claimed(trace.size(), 0);
    std::vector<uint64_t> nextSeq;
    auto seqFor = [&](uint32_t matrix) {
        if (matrix >= nextSeq.size())
            nextSeq.resize(matrix + 1, 0);
        return nextSeq[matrix]++;
    };

    for (size_t i = 0; i < trace.size(); ++i) {
        if (claimed[i])
            continue;
        const ServeRequest &r = trace[i];
        ServeWorkItem item;
        item.matrix = r.matrix;
        item.op = r.op;
        item.requestIds.push_back(r.id);
        if (r.op == ServeOp::Spmv && batch_window > 1) {
            // The anchor absorbs same-matrix SpMVs from the next
            // (batch_window - 1) arrivals: the window models how long
            // admission may hold a request to coalesce it, and also
            // caps the batch size.
            for (size_t j = i + 1;
                 j < trace.size() && j < i + batch_window &&
                 item.requestIds.size() < batch_window;
                 ++j) {
                if (claimed[j] || trace[j].matrix != r.matrix ||
                    trace[j].op != ServeOp::Spmv)
                    continue;
                claimed[j] = 1;
                item.requestIds.push_back(trace[j].id);
            }
        }
        item.seq = seqFor(r.matrix);
        plan.push_back(std::move(item));
    }
    return plan;
}

DenseVector
serveRequestRhs(uint64_t seed, uint32_t id, Index n)
{
    Rng rng(seed ^ (uint64_t(id) * 0x9e3779b97f4a7c15ULL));
    DenseVector x(n);
    for (Index i = 0; i < n; ++i)
        x[i] = rng.nextDouble(-1.0, 1.0);
    return x;
}

namespace {

double
checksumOf(const DenseVector &v)
{
    double acc = 0.0;
    for (Value x : v)
        acc += x;
    return acc;
}

/** Per-worker tallies, merged under a lock at the end. */
struct WorkerTally
{
    uint64_t completed = 0;
    stats::Distribution batchSize;
};

struct QueuedItem
{
    ServeWorkItem work;
    std::chrono::steady_clock::time_point admitted;
    /** When a worker popped it (a parked item keeps its pop time). */
    std::chrono::steady_clock::time_point popped;
    /** The pop on the timeline's host clock, while tracing. */
    uint64_t poppedUs = 0;
};

/** Request-plane metric handles, registered once before the workers
 *  start so the hot path never takes the registry lock. */
struct ServeMetrics
{
    metrics::Counter *completed = nullptr;
    metrics::Histogram *latencyUs = nullptr;
    metrics::Histogram *queueWaitUs = nullptr;
    metrics::Histogram *batchSize = nullptr;
    metrics::Gauge *queueDepth = nullptr;
    std::vector<metrics::Histogram *> latencyPerMatrix;

    void bind(metrics::Registry &reg, const ServeFleet &fleet)
    {
        completed = &reg.counter(serve_metric::kRequestsCompleted,
                                 "requests drained to completion");
        latencyUs = &reg.histogram(
            serve_metric::kLatencyUs,
            "admission-to-completion wall latency per request, us");
        queueWaitUs = &reg.histogram(
            serve_metric::kQueueWaitUs,
            "admission-to-dequeue wall wait per request, us");
        batchSize = &reg.histogram(
            "serve_batch_size",
            "coalesced requests per executed SpMV batch");
        queueDepth = &reg.gauge("serve_queue_depth",
                                "admission-queue depth right now");
        latencyPerMatrix.reserve(fleet.size());
        for (size_t i = 0; i < fleet.size(); ++i)
            latencyPerMatrix.push_back(&reg.histogram(
                serve_metric::kLatencyUs,
                "admission-to-completion wall latency per request, us",
                {{"matrix", fleet.nameOf(i)}}));
    }
};

double
usBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

ServeResult
serve(ServeFleet &fleet, const std::vector<ServeRequest> &trace,
      const ServeConfig &cfg)
{
    ServeResult res;
    res.checksums.assign(trace.size(), 0.0);
    res.modeledCycles.assign(trace.size(), 0);
    res.latencyUs.assign(trace.size(), 0.0);
    res.queueWaitUs.assign(trace.size(), 0.0);
    if (cfg.keepResults)
        res.results.resize(trace.size());

    // Request-plane track names + plan span.  Everything below guards
    // on timeline::enabled() per item, so a run with tracing off pays
    // exactly one relaxed atomic load per site and records nothing.
    if (timeline::enabled())
        for (size_t i = 0; i < fleet.size(); ++i)
            timeline::setTrackName(
                timeline::kPidServe,
                timeline::kTidServeAccBase + uint32_t(i), fleet.nameOf(i));

    uint64_t planStartUs = timeline::enabled() ? timeline::hostNowUs() : 0;
    std::vector<ServeWorkItem> plan =
        buildServePlan(trace, cfg.batchWindow);
    res.workItems = plan.size();
    if (timeline::enabled())
        timeline::hostSpan("plan", "serve", planStartUs,
                           timeline::hostNowUs());

    ServeMetrics sm;
    if (cfg.metrics != nullptr)
        sm.bind(*cfg.metrics, fleet);

    RequestQueue<QueuedItem> queue(cfg.queueDepth);
    int threads = std::max(1, cfg.threads);
    std::mutex tallyMutex;
    std::atomic<int64_t> inFlight{0};
    auto start = std::chrono::steady_clock::now();

    // This drain's per-matrix turns, which replay each matrix's items
    // in plan order at any thread count (modeled counters depend on an
    // engine's run order through its cache and RCU switch state).
    // nextSeq[m] is the sequence number of matrix m's item that is
    // running or runs next; an item popped before its turn waits in
    // parked[m] until the worker that finishes its predecessor takes it.
    struct Turns
    {
        std::mutex mutex;
        std::vector<uint64_t> nextSeq;
        std::vector<std::map<uint64_t, QueuedItem>> parked;
    } turns;
    turns.nextSeq.assign(fleet.size(), 0);
    turns.parked.resize(fleet.size());

    auto runItem = [&](const QueuedItem &qi, WorkerTally &tally) {
        const ServeWorkItem &item = qi.work;
        Accelerator &acc = fleet.at(item.matrix);
        const Index n = acc.matrix().rows();
        const size_t k = item.requestIds.size();

        const bool tracing = timeline::enabled();
        uint64_t replayUs = 0;
        if (tracing) {
            replayUs = timeline::hostNowUs();
            timeline::serveCounter(
                "in_flight", replayUs,
                double(inFlight.fetch_add(1, std::memory_order_relaxed) +
                       1));
            // Pop to replay start: how long the item waited for its
            // matrix, parked.  Keyed by the item's first request, as
            // another worker may have popped it while this one ran
            // earlier spans.
            timeline::hostAsyncSpan("gate", "serve", item.requestIds[0],
                                    qi.poppedUs, replayUs);
            timeline::serveCounter("batch_occupancy", replayUs, double(k));
        }

        uint64_t before = acc.engine().totalCycles();
        if (item.op == ServeOp::Spmv && k > 1) {
            std::vector<DenseVector> xs;
            xs.reserve(k);
            for (uint32_t id : item.requestIds)
                xs.push_back(serveRequestRhs(cfg.rhsSeed, id, n));
            std::vector<DenseVector> ys = acc.spmm(xs);
            for (size_t j = 0; j < k; ++j) {
                res.checksums[item.requestIds[j]] = checksumOf(ys[j]);
                if (cfg.keepResults)
                    res.results[item.requestIds[j]] = std::move(ys[j]);
            }
        } else if (item.op == ServeOp::Spmv) {
            uint32_t id = item.requestIds[0];
            DenseVector y = acc.spmv(serveRequestRhs(cfg.rhsSeed, id, n));
            res.checksums[id] = checksumOf(y);
            if (cfg.keepResults)
                res.results[id] = std::move(y);
        } else if (item.op == ServeOp::Symgs) {
            uint32_t id = item.requestIds[0];
            DenseVector b = serveRequestRhs(cfg.rhsSeed, id, n);
            DenseVector x(n, 0.0);
            acc.symgsSweep(b, x, GsSweep::Symmetric);
            res.checksums[id] = checksumOf(x);
            if (cfg.keepResults)
                res.results[id] = std::move(x);
        } else {
            uint32_t id = item.requestIds[0];
            PcgOptions opts;
            opts.maxIterations = cfg.pcgIterations;
            PcgResult sol = acc.pcg(serveRequestRhs(cfg.rhsSeed, id, n), opts);
            res.checksums[id] = checksumOf(sol.x);
            if (cfg.keepResults)
                res.results[id] = std::move(sol.x);
        }
        uint64_t delta = acc.engine().totalCycles() - before;
        auto done = std::chrono::steady_clock::now();

        if (tracing) {
            uint64_t endUs = timeline::hostNowUs();
            const char *opName =
                item.op == ServeOp::Spmv && k > 1 ? "spmv-batch"
                                                  : toString(item.op);
            // Same replay window on two tracks: the worker that ran it
            // (host process) and the accelerator it ran on (serve
            // process) -- per-worker and per-accelerator views of one
            // request plane.
            timeline::hostSpan(opName, "serve", replayUs, endUs);
            timeline::serveSpan(opName, "serve",
                                timeline::kTidServeAccBase + item.matrix,
                                replayUs, endUs);
            timeline::serveCounter(
                "in_flight", endUs,
                double(inFlight.fetch_sub(1, std::memory_order_relaxed) -
                       1));
        }

        // Batched latency attribution: the batch's modeled cycles
        // split across its coalesced requests in exact integers, the
        // remainder one cycle each to the first requests
        // (docs/MODELING.md); wall latency is shared, not divided.
        for (size_t j = 0; j < k; ++j)
            res.modeledCycles[item.requestIds[j]] =
                delta / k + (j < delta % k ? 1 : 0);
        if (item.op == ServeOp::Spmv)
            tally.batchSize.sample(double(k));
        tally.completed += k;

        // Exact per-request samples: a coalesced request shares its
        // batch's wall clock (the batch is one replay).  Distinct ids
        // index a preallocated vector, so workers never race.
        double waitUs = usBetween(qi.admitted, qi.popped);
        double e2eUs = usBetween(qi.admitted, done);
        for (uint32_t id : item.requestIds) {
            res.queueWaitUs[id] = waitUs;
            res.latencyUs[id] = e2eUs;
        }
        if (sm.completed != nullptr) {
            sm.completed->add(double(k));
            for (size_t j = 0; j < k; ++j) {
                sm.latencyUs->observe(e2eUs);
                sm.queueWaitUs->observe(waitUs);
                sm.latencyPerMatrix[item.matrix]->observe(e2eUs);
            }
            if (item.op == ServeOp::Spmv)
                sm.batchSize->observe(double(k));
        }
    };

    // Park and chain: a worker never waits on a matrix.  Pops are FIFO
    // over plan order, so a parked item's predecessor has been popped
    // too: it is running, parked, or about to take the lock, and
    // whoever finishes it runs the parked item.  The only blocking
    // waits are the admission queue's push and pop.
    auto worker = [&]() {
        WorkerTally tally;
        QueuedItem qi;
        while (queue.pop(qi)) {
            qi.popped = std::chrono::steady_clock::now();
            if (timeline::enabled()) {
                qi.poppedUs = timeline::hostNowUs();
                timeline::serveCounter("queue_depth", qi.poppedUs,
                                       double(queue.size()));
            }
            const uint32_t m = qi.work.matrix;
            {
                std::lock_guard<std::mutex> lock(turns.mutex);
                if (qi.work.seq != turns.nextSeq[m]) {
                    uint64_t seq = qi.work.seq;
                    turns.parked[m].emplace(seq, std::move(qi));
                    continue;
                }
            }
            for (;;) {
                runItem(qi, tally);
                std::lock_guard<std::mutex> lock(turns.mutex);
                turns.nextSeq[m] = qi.work.seq + 1;
                auto next = turns.parked[m].find(turns.nextSeq[m]);
                if (next == turns.parked[m].end())
                    break;
                qi = std::move(next->second);
                turns.parked[m].erase(next);
            }
        }
        std::lock_guard<std::mutex> g(tallyMutex);
        res.completed += tally.completed;
        res.batchSize.merge(tally.batchSize);
    };

    std::vector<std::thread> pool;
    pool.reserve(size_t(threads));
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker);

    // The caller's thread is the dispatcher: admission blocks when the
    // bounded queue is full (back-pressure under a burst).
    for (ServeWorkItem &item : plan) {
        bool tracing = timeline::enabled();
        uint64_t admitUs = tracing ? timeline::hostNowUs() : 0;
        queue.push({std::move(item), std::chrono::steady_clock::now(), {}, 0});
        if (tracing) {
            uint64_t enqueueUs = timeline::hostNowUs();
            timeline::hostSpan("admit", "serve", admitUs, enqueueUs);
            timeline::serveCounter("queue_depth", enqueueUs,
                                   double(queue.size()));
        }
        if (sm.queueDepth != nullptr)
            sm.queueDepth->set(double(queue.size()));
    }
    queue.close();
    for (std::thread &t : pool)
        t.join();

    res.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    res.requestsPerSec =
        res.wallMs > 0.0 ? double(res.completed) / (res.wallMs / 1e3)
                         : 0.0;
    res.queueHighWater = queue.highWater();
    res.queueBlockedPushes = queue.blockedPushes();
    res.queueRejects = queue.rejects();

    // Drain-time registry publication: queue pressure plus per-matrix
    // engine-side cumulative counters (cheap, and exact at the moment
    // the stream finished).
    if (cfg.metrics != nullptr) {
        metrics::Registry &reg = *cfg.metrics;
        reg.counter("serve_work_items", "executed plan items (batches)")
            .add(double(res.workItems));
        reg.counter("serve_queue_blocked_pushes",
                    "admissions that blocked on a full queue")
            .add(double(res.queueBlockedPushes));
        reg.counter("serve_admission_rejects",
                    "tryPush admissions shed on a full/closed queue")
            .add(double(res.queueRejects));
        reg.gauge("serve_queue_high_water",
                  "deepest the admission queue has been")
            .set(double(res.queueHighWater));
        sm.queueDepth->set(0.0);
        for (size_t i = 0; i < fleet.size(); ++i) {
            const Engine &eng = fleet.at(i).engine();
            metrics::Labels labels = {{"matrix", fleet.nameOf(i)}};
            reg.gauge("serve_modeled_cycles",
                      "cumulative modeled cycles on this accelerator",
                      labels)
                .set(double(eng.totalCycles()));
            reg.gauge("serve_modeled_dram_bytes",
                      "cumulative modeled DRAM traffic, bytes", labels)
                .set(eng.memory().totalBytes());
            reg.gauge("serve_schedule_hits",
                      "schedule-cache hits (incl. warm-start claims)",
                      labels)
                .set(double(eng.scheduleHits()));
            reg.gauge("serve_schedule_compiles",
                      "schedule compilations", labels)
                .set(double(eng.scheduleCompiles()));
            reg.gauge("serve_schedule_evictions",
                      "schedules evicted from the MRU cache", labels)
                .set(double(eng.scheduleEvictions()));
        }
    }
    return res;
}

SloReport
computeSlo(const ServeResult &res, const std::vector<ServeRequest> &trace,
           const ServeFleet &fleet, double slo_us, double objective)
{
    ALR_ASSERT(res.latencyUs.size() == trace.size(),
               "latency samples do not match the trace");
    SloReport report;
    report.sloUs = slo_us;
    report.objective = objective;

    auto fill = [&](SloBucket &b, std::vector<double> samples) {
        b.requests = samples.size();
        if (slo_us > 0.0)
            for (double v : samples)
                (v <= slo_us ? b.good : b.bad) += 1;
        else
            b.good = b.requests;
        b.p50 = metrics::exactPercentile(samples, 50.0);
        b.p95 = metrics::exactPercentile(samples, 95.0);
        b.p99 = metrics::exactPercentile(samples, 99.0);
        b.p999 = metrics::exactPercentile(std::move(samples), 99.9);
    };

    report.total.name = "all";
    fill(report.total, res.latencyUs);

    std::vector<std::vector<double>> perMatrix(fleet.size());
    for (const ServeRequest &r : trace)
        if (r.matrix < perMatrix.size())
            perMatrix[r.matrix].push_back(res.latencyUs[r.id]);
    report.perMatrix.resize(fleet.size());
    for (size_t i = 0; i < fleet.size(); ++i) {
        report.perMatrix[i].name = fleet.nameOf(i);
        fill(report.perMatrix[i], std::move(perMatrix[i]));
    }
    return report;
}

} // namespace alr
