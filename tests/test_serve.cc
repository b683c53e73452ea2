/**
 * @file
 * Serving-mode properties (ISSUE 8): replayable trace generation, the
 * deterministic batching plan, and the equivalence contract -- batched
 * serving stays bit-identical per request to the unbatched engine, the
 * unbatched stream matches a plain serial loop, and every modeled
 * number is invariant under the worker thread count.  Plus the bounded
 * admission queue and concurrent schedule-cache lookups (the
 * ServeConcurrency suite runs under TSan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "alrescha/serve.hh"
#include "common/random.hh"
#include "common/request_queue.hh"
#include "common/timeline.hh"
#include "reference/reference_engine.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

/** Three small PDE matrices with distinct structure. */
std::vector<CsrMatrix>
testMatrices()
{
    Rng rng(3);
    return {gen::stencil2d(8, 8), gen::banded(49, 4, 0.8, rng),
            gen::randomSpd(37, 4, rng)};
}

/** A warm fleet of the first @p entries test matrices. */
ServeFleet
makeFleet(size_t entries = 3)
{
    ServeFleet fleet;
    std::vector<CsrMatrix> ms = testMatrices();
    for (size_t i = 0; i < entries; ++i)
        fleet.add("m" + std::to_string(i), ms[i], true);
    fleet.warmSchedules();
    return fleet;
}

/** Two drains of one trace agree bit for bit: per request (results,
 *  checksums, modeled cycles) and per engine (cycles, stat dumps). */
void
expectSameDrain(const ServeResult &want, const ServeFleet &wantFleet,
                const ServeResult &got, const ServeFleet &gotFleet)
{
    EXPECT_EQ(want.completed, got.completed);
    EXPECT_EQ(want.workItems, got.workItems);
    EXPECT_EQ(want.checksums, got.checksums);
    EXPECT_EQ(want.modeledCycles, got.modeledCycles);
    ASSERT_EQ(want.results.size(), got.results.size());
    for (size_t i = 0; i < want.results.size(); ++i)
        EXPECT_EQ(want.results[i], got.results[i]) << "request " << i;
    ASSERT_EQ(wantFleet.size(), gotFleet.size());
    for (size_t m = 0; m < wantFleet.size(); ++m) {
        EXPECT_EQ(wantFleet.at(m).engine().totalCycles(),
                  gotFleet.at(m).engine().totalCycles());
        EXPECT_EQ(statDump(wantFleet.at(m).engine()),
                  statDump(gotFleet.at(m).engine()));
    }
}

TraceParams
smallTrace(uint32_t requests = 40)
{
    TraceParams tp;
    tp.requests = requests;
    tp.burstiness = 0.5;
    tp.pcgWeight = 0.05;
    return tp;
}

/** Drain the trace the trivial way: one accelerator per matrix, the
 *  requests run serially in arrival order.  The ground truth the
 *  serving loop must reproduce bit for bit. */
struct SerialReference
{
    std::vector<std::unique_ptr<Accelerator>> accs;
    std::vector<DenseVector> results;

    SerialReference(const std::vector<CsrMatrix> &ms,
                    const std::vector<ServeRequest> &trace,
                    const ServeConfig &cfg, const AccelParams &params = {})
    {
        for (const CsrMatrix &m : ms) {
            accs.push_back(std::make_unique<Accelerator>(params));
            accs.back()->loadPde(m);
        }
        results.resize(trace.size());
        for (const ServeRequest &r : trace) {
            Accelerator &acc = *accs[r.matrix];
            Index n = acc.matrix().rows();
            DenseVector rhs = serveRequestRhs(cfg.rhsSeed, r.id, n);
            if (r.op == ServeOp::Spmv) {
                results[r.id] = acc.spmv(rhs);
            } else if (r.op == ServeOp::Symgs) {
                DenseVector x(n, 0.0);
                acc.symgsSweep(rhs, x, GsSweep::Symmetric);
                results[r.id] = std::move(x);
            } else {
                PcgOptions opts;
                opts.maxIterations = cfg.pcgIterations;
                results[r.id] = acc.pcg(rhs, opts).x;
            }
        }
    }
};

} // namespace

TEST(ServeTrace, DeterministicAndSeedSensitive)
{
    std::vector<uint8_t> mask{1, 1, 1, 1};
    TraceParams tp = smallTrace(200);
    std::vector<ServeRequest> t1 = generateTrace(tp, mask);
    std::vector<ServeRequest> t2 = generateTrace(tp, mask);
    ASSERT_EQ(t1.size(), t2.size());
    for (size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].id, uint32_t(i));
        EXPECT_EQ(t1[i].matrix, t2[i].matrix);
        EXPECT_EQ(t1[i].op, t2[i].op);
        EXPECT_LT(t1[i].matrix, mask.size());
    }

    tp.seed += 1;
    std::vector<ServeRequest> t3 = generateTrace(tp, mask);
    bool differs = false;
    for (size_t i = 0; i < t1.size(); ++i)
        differs |= t1[i].matrix != t3[i].matrix || t1[i].op != t3[i].op;
    EXPECT_TRUE(differs);
}

TEST(ServeTrace, ZipfSkewsTowardTheHeadAndMaskForcesSpmv)
{
    std::vector<uint8_t> mask{1, 0, 1, 0};
    TraceParams tp = smallTrace(2000);
    tp.zipfS = 1.2;
    tp.burstiness = 0.0;
    std::vector<ServeRequest> trace = generateTrace(tp, mask);

    std::vector<uint32_t> counts(mask.size(), 0);
    for (const ServeRequest &r : trace) {
        ++counts[r.matrix];
        if (!mask[r.matrix]) {
            EXPECT_EQ(r.op, ServeOp::Spmv);
        }
    }
    // Matrix 0 is the Zipf head: strictly most popular.
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[0], counts[2]);
    EXPECT_GT(counts[0], counts[3]);
}

TEST(ServePlan, WindowOnePreservesArrivalOrder)
{
    std::vector<uint8_t> mask{1, 1, 1};
    std::vector<ServeRequest> trace = generateTrace(smallTrace(60), mask);
    std::vector<ServeWorkItem> plan = buildServePlan(trace, 1);
    ASSERT_EQ(plan.size(), trace.size());
    std::vector<uint64_t> seq(mask.size(), 0);
    for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].requestIds.size(), 1u);
        EXPECT_EQ(plan[i].requestIds[0], trace[i].id);
        EXPECT_EQ(plan[i].matrix, trace[i].matrix);
        EXPECT_EQ(plan[i].op, trace[i].op);
        EXPECT_EQ(plan[i].seq, seq[plan[i].matrix]++);
    }
}

TEST(ServePlan, CoalescesOnlySameMatrixSpmvWithinWindow)
{
    std::vector<uint8_t> mask{1, 1, 1};
    std::vector<ServeRequest> trace = generateTrace(smallTrace(200), mask);
    const uint32_t window = 6;
    std::vector<ServeWorkItem> plan = buildServePlan(trace, window);

    // Every request appears exactly once across the plan.
    std::vector<int> seen(trace.size(), 0);
    for (const ServeWorkItem &item : plan) {
        EXPECT_LE(item.requestIds.size(), size_t(window));
        if (item.op != ServeOp::Spmv) {
            EXPECT_EQ(item.requestIds.size(), 1u);
        }
        uint32_t anchor = item.requestIds.front();
        for (uint32_t id : item.requestIds) {
            ++seen[id];
            EXPECT_EQ(trace[id].matrix, item.matrix);
            if (item.requestIds.size() > 1) {
                EXPECT_EQ(trace[id].op, ServeOp::Spmv);
                // Window bound: absorbed ids arrive within window-1 of
                // the anchor.
                EXPECT_LT(id - anchor, window);
            }
        }
    }
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "request " << i;

    // The plan is a pure function of (trace, window).
    std::vector<ServeWorkItem> again = buildServePlan(trace, window);
    ASSERT_EQ(plan.size(), again.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].requestIds, again[i].requestIds);
        EXPECT_EQ(plan[i].seq, again[i].seq);
    }
    // Batching actually happened on this bursty trace.
    EXPECT_LT(plan.size(), trace.size());
}

TEST(ServeEquivalence, UnbatchedServeMatchesSerialLoop)
{
    std::vector<CsrMatrix> ms = testMatrices();
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(), {1, 1, 1});
    ServeConfig cfg;
    cfg.batchWindow = 1;
    cfg.keepResults = true;
    cfg.pcgIterations = 4;

    ServeFleet fleet = makeFleet();
    ServeResult res = serve(fleet, trace, cfg);
    SerialReference ref(ms, trace, cfg);

    ASSERT_EQ(res.completed, trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(res.results[i], ref.results[i]) << "request " << i;
    // Modeled counters match the serial loop engine for engine: the
    // serving layer added queuing, threads, and locks but changed no
    // modeled number.
    for (size_t m = 0; m < ms.size(); ++m) {
        EXPECT_EQ(fleet.at(m).engine().totalCycles(),
                  ref.accs[m]->engine().totalCycles());
        EXPECT_EQ(statDump(fleet.at(m).engine()),
                  statDump(ref.accs[m]->engine()));
    }
}

TEST(ServeEquivalence, BatchedResultsBitIdenticalPerRequest)
{
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(60), {1, 1, 1});
    ServeConfig off;
    off.batchWindow = 1;
    off.keepResults = true;
    off.pcgIterations = 4;
    ServeConfig on = off;
    on.batchWindow = 8;

    ServeFleet f1 = makeFleet();
    ServeResult r1 = serve(f1, trace, off);
    ServeFleet f2 = makeFleet();
    ServeResult r2 = serve(f2, trace, on);

    EXPECT_LT(r2.workItems, r1.workItems); // coalescing happened
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(r1.results[i], r2.results[i]) << "request " << i;
    // Batching reduces the fleet's modeled cycles (the matrix streams
    // once per batch) -- that is the serving win, measured, not free.
    EXPECT_LT(f2.totalCycles(), f1.totalCycles());
}

TEST(ServeEquivalence, BatchedRequestCyclesSumExactly)
{
    // The per-request split of each batch's modeled cycles is exact
    // integer arithmetic: over a drain from fresh engines the requests
    // sum to the fleet's cycles, with no rounding lost on any batch
    // whose cycles k does not divide.
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(80), {1, 1, 1});
    ServeConfig cfg;
    cfg.batchWindow = 6;
    cfg.pcgIterations = 4;
    ServeFleet fleet = makeFleet();
    ServeResult res = serve(fleet, trace, cfg);
    ASSERT_LT(res.workItems, trace.size()); // batches formed

    uint64_t sum = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_GT(res.modeledCycles[i], 0u) << "request " << i;
        sum += uint64_t(res.modeledCycles[i]);
    }
    EXPECT_EQ(sum, fleet.totalCycles());
}

TEST(ServeEquivalence, ThreadCountInvariant)
{
    // Every (workers, queue depth) drain reproduces the one-worker
    // drain: a queue of depth 1 keeps the producer blocked, one of 64
    // lets workers pop far ahead of a matrix's turn and park.
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(60), {1, 1, 1});
    ServeConfig cfg;
    cfg.batchWindow = 4;
    cfg.keepResults = true;
    cfg.pcgIterations = 4;

    ServeFleet f1 = makeFleet();
    ServeResult r1 = serve(f1, trace, cfg);
    ASSERT_EQ(r1.completed, trace.size());
    for (int threads : {2, 3, 8})
        for (size_t depth : {size_t(1), size_t(3), size_t(64)}) {
            SCOPED_TRACE(std::to_string(threads) + " workers, queue depth " +
                         std::to_string(depth));
            ServeConfig many = cfg;
            many.threads = threads;
            many.queueDepth = depth;
            ServeFleet fleet = makeFleet();
            ServeResult res = serve(fleet, trace, many);
            expectSameDrain(r1, f1, res, fleet);
        }
}

TEST(ServeEquivalence, OneMatrixTraceParksAndChains)
{
    // Every request targets one matrix, so at 8 workers nearly every
    // popped item finds its matrix busy and parks, and the worker that
    // finishes an item runs the next one itself.
    std::vector<ServeRequest> trace = generateTrace(smallTrace(80), {1});
    ServeConfig cfg;
    cfg.batchWindow = 4;
    cfg.keepResults = true;
    cfg.pcgIterations = 4;

    ServeFleet f1 = makeFleet(1);
    ServeResult r1 = serve(f1, trace, cfg);
    for (size_t depth : {size_t(3), size_t(64)}) {
        SCOPED_TRACE("queue depth " + std::to_string(depth));
        ServeConfig many = cfg;
        many.threads = 8;
        many.queueDepth = depth;
        ServeFleet fleet = makeFleet(1);
        ServeResult res = serve(fleet, trace, many);
        EXPECT_EQ(res.completed, trace.size());
        expectSameDrain(r1, f1, res, fleet);
    }
}

TEST(ServeFleetTest, WarmSchedulesCompilesEverythingOnce)
{
    ServeFleet fleet = makeFleet();
    // Three PDE entries x three tables each.
    EXPECT_EQ(fleet.scheduleCompiles(), 9u);
    ServeConfig cfg;
    cfg.pcgIterations = 2;
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(30), fleet.pdeMask());
    serve(fleet, trace, cfg);
    // Serving replays the warm schedules; nothing recompiles.
    EXPECT_EQ(fleet.scheduleCompiles(), 9u);
}

TEST(ServeFleetTest, SecondDrainOfOneFleetMatchesFreshFleets)
{
    // Every drain numbers each matrix's work items from 0, so a second
    // serve() on the same fleet must start each matrix's turns over:
    // turns carried over from the first drain would park every item of
    // the second, each waiting for a turn that never comes.
    std::vector<ServeRequest> first =
        generateTrace(smallTrace(40), {1, 1, 1});
    TraceParams tp = smallTrace(40);
    tp.seed += 1;
    std::vector<ServeRequest> second = generateTrace(tp, {1, 1, 1});
    ServeConfig cfg;
    cfg.threads = 2;
    cfg.batchWindow = 4;
    cfg.pcgIterations = 4;

    ServeFleet reused = makeFleet();
    ServeResult r1 = serve(reused, first, cfg);
    ServeResult r2 = serve(reused, second, cfg);
    EXPECT_EQ(r2.completed, second.size());

    ServeFleet fresh1 = makeFleet();
    ServeFleet fresh2 = makeFleet();
    EXPECT_EQ(r1.checksums, serve(fresh1, first, cfg).checksums);
    EXPECT_EQ(r2.checksums, serve(fresh2, second, cfg).checksums);
}

TEST(ServeFleetTest, CacheRoundTripThroughDirectory)
{
    std::string dir = ::testing::TempDir() + "serve_caches";
    std::filesystem::create_directories(dir);

    ServeFleet cold = makeFleet();
    EXPECT_EQ(cold.saveScheduleCaches(dir), cold.size());

    ServeFleet warm;
    std::vector<CsrMatrix> ms = testMatrices();
    for (size_t i = 0; i < ms.size(); ++i)
        warm.add("m" + std::to_string(i), ms[i], true);
    EXPECT_EQ(warm.restoreScheduleCaches(dir), warm.size());
    warm.warmSchedules();
    EXPECT_EQ(warm.scheduleCompiles(), 0u) << "warm start compiled";

    std::filesystem::remove_all(dir);
}

TEST(ServeConcurrency, RequestQueueBoundsAndDrains)
{
    RequestQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)) << "capacity must bound admissions";
    EXPECT_EQ(q.size(), 2u);

    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.push(3));
    q.close();
    EXPECT_FALSE(q.push(4)) << "closed queue must refuse admissions";
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 3) << "pending items drain after close";
    EXPECT_FALSE(q.pop(v)) << "drained + closed pops false";
}

TEST(ServeConcurrency, ProducersAndConsumersSeeEveryItem)
{
    RequestQueue<int> q(4);
    constexpr int kItems = 2000;
    std::atomic<long> sum{0};
    std::atomic<int> count{0};

    std::vector<std::thread> consumers;
    for (int t = 0; t < 3; ++t) {
        consumers.emplace_back([&] {
            int v;
            while (q.pop(v)) {
                sum += v;
                ++count;
            }
        });
    }
    std::vector<std::thread> producers;
    for (int t = 0; t < 2; ++t) {
        producers.emplace_back([&, t] {
            for (int i = t; i < kItems; i += 2)
                ASSERT_TRUE(q.push(i));
        });
    }
    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(count.load(), kItems);
    EXPECT_EQ(sum.load(), long(kItems) * (kItems - 1) / 2);
}

TEST(ServeConcurrency, ParallelScheduleLookupsAreSafe)
{
    // Many threads hammer prepareSchedule() on one programmed engine:
    // the cache mutex must serialize the MRU reorder (this test runs
    // under TSan in CI) and exactly one compile must happen.
    Rng rng(17);
    CsrMatrix a = gen::randomSpd(64, 5, rng);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    auto table = ConfigTable::convert(KernelType::SpMV, ld);

    AccelParams params;
    params.omega = 8;
    Engine e(params);
    e.program(&ld, &table);

    std::vector<std::thread> threads;
    std::atomic<int> nulls{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                if (!e.prepareSchedule())
                    ++nulls;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(nulls.load(), 0);
    EXPECT_EQ(e.scheduleCompiles(), 1u);
    EXPECT_EQ(e.cachedSchedules(), 1u);
}

TEST(ServeQueueEdges, CloseWakesProducerBlockedOnFull)
{
    RequestQueue<int> q(1);
    ASSERT_TRUE(q.push(1));

    std::atomic<bool> returned{false};
    std::atomic<bool> accepted{true};
    std::thread producer([&] {
        accepted = q.push(2); // blocks: the queue is at capacity
        returned = true;
    });
    // Wait until the producer has actually hit back-pressure.
    while (q.blockedPushes() == 0 && !returned)
        std::this_thread::yield();
    EXPECT_FALSE(returned.load()) << "push must block on a full queue";

    q.close();
    producer.join();
    EXPECT_FALSE(accepted.load()) << "close must drop the blocked push";
    EXPECT_EQ(q.blockedPushes(), 1u);

    // The item admitted before close still drains.
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_FALSE(q.pop(v));
}

TEST(ServeQueueEdges, CloseWakesConsumersBlockedOnEmpty)
{
    RequestQueue<int> q(4);
    std::atomic<int> done{0};
    std::vector<std::thread> consumers;
    for (int i = 0; i < 3; ++i)
        consumers.emplace_back([&] {
            int v = 0;
            EXPECT_FALSE(q.pop(v)) << "empty + closed must pop false";
            ++done;
        });
    // Give the consumers a moment to block on the empty queue; close
    // must wake every one of them either way.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(done.load(), 3);
}

TEST(ServeQueueEdges, AdmissionCountersTrackPressure)
{
    RequestQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3));
    EXPECT_FALSE(q.tryPush(4));
    EXPECT_EQ(q.rejects(), 2u) << "shed admissions must be counted";
    EXPECT_EQ(q.highWater(), 2u);
    EXPECT_EQ(q.blockedPushes(), 0u);

    int v = 0;
    EXPECT_TRUE(q.pop(v));
    q.close();
    // Push after close: refused, dropped, and never counted as a
    // blocked (back-pressured) admission.
    EXPECT_FALSE(q.push(9));
    EXPECT_FALSE(q.tryPush(9));
    EXPECT_EQ(q.rejects(), 3u);
    EXPECT_EQ(q.blockedPushes(), 0u);
    EXPECT_EQ(q.highWater(), 2u);
}

TEST(ServeObservability, TracingAndMetricsDoNotPerturbResults)
{
    TraceParams tp = smallTrace(60);
    ServeConfig cfg;
    cfg.threads = 2;
    cfg.batchWindow = 4;

    ServeFleet plain = makeFleet();
    std::vector<ServeRequest> trace = generateTrace(tp, plain.pdeMask());
    ServeResult base = serve(plain, trace, cfg);

    // Same trace, fresh fleet, full observability on: request-plane
    // tracing plus a live metrics registry.
    ServeFleet observed = makeFleet();
    metrics::Registry reg;
    ServeConfig ocfg = cfg;
    ocfg.metrics = &reg;
    timeline::reset();
    timeline::setEnabled(true);
    ServeResult obs = serve(observed, trace, ocfg);
    timeline::setEnabled(false);
    timeline::reset();

    ASSERT_EQ(base.checksums.size(), obs.checksums.size());
    for (size_t i = 0; i < base.checksums.size(); ++i) {
        EXPECT_EQ(base.checksums[i], obs.checksums[i]) << "request " << i;
        EXPECT_EQ(base.modeledCycles[i], obs.modeledCycles[i])
            << "request " << i;
    }
    EXPECT_EQ(plain.totalCycles(), observed.totalCycles());
    for (size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(statDump(plain.at(i).engine()),
                  statDump(observed.at(i).engine()))
            << "fleet entry " << i;
}

TEST(ServeObservability, TimelineRecordsTheRequestPlane)
{
    ServeFleet fleet = makeFleet();
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(30), fleet.pdeMask());
    ServeConfig cfg;
    cfg.threads = 2;
    cfg.batchWindow = 4;

    timeline::reset();
    timeline::setEnabled(true);
    serve(fleet, trace, cfg);
    timeline::setEnabled(false);

    bool accSpan = false, serveCounter = false, workerSpan = false;
    for (const timeline::Event &e : timeline::events()) {
        if (e.pid == timeline::kPidServe) {
            if (e.kind == timeline::Event::Kind::Span &&
                e.tid >= timeline::kTidServeAccBase)
                accSpan = true;
            if (e.kind == timeline::Event::Kind::Counter &&
                e.tid == timeline::kTidServeCounters)
                serveCounter = true;
        } else if (e.pid == timeline::kPidHost &&
                   e.kind == timeline::Event::Kind::Span) {
            workerSpan = true;
        }
    }
    EXPECT_TRUE(accSpan) << "no per-accelerator request spans";
    EXPECT_TRUE(serveCounter) << "no queue/in-flight/batch counters";
    EXPECT_TRUE(workerSpan) << "no per-worker spans";

    std::ostringstream os;
    timeline::exportChromeTrace(os);
    std::string doc = os.str();
    EXPECT_NE(doc.find("serve (request plane, wall clock)"),
              std::string::npos);
    EXPECT_NE(doc.find("\"m0\""), std::string::npos)
        << "accelerator track not named after its matrix";
    timeline::reset();
}

TEST(ServeObservability, MetricsRegistryCountsMatchTheDrain)
{
    ServeFleet fleet = makeFleet();
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(50), fleet.pdeMask());
    metrics::Registry reg;
    ServeConfig cfg;
    cfg.threads = 2;
    cfg.batchWindow = 4;
    cfg.metrics = &reg;
    ServeResult res = serve(fleet, trace, cfg);
    ASSERT_EQ(res.completed, trace.size());

    double v = 0.0;
    ASSERT_TRUE(reg.lookup(serve_metric::kRequestsCompleted, {}, &v));
    EXPECT_EQ(uint64_t(v), res.completed);
    ASSERT_TRUE(reg.lookup(serve_metric::kLatencyUs, {}, &v));
    EXPECT_EQ(uint64_t(v), res.completed)
        << "latency histogram must hold one sample per request";
    ASSERT_TRUE(reg.lookup(serve_metric::kQueueWaitUs, {}, &v));
    EXPECT_EQ(uint64_t(v), res.completed);

    uint64_t perMatrix = 0;
    for (size_t i = 0; i < fleet.size(); ++i) {
        metrics::Labels labels = {{"matrix", fleet.nameOf(i)}};
        ASSERT_TRUE(reg.lookup(serve_metric::kLatencyUs, labels, &v));
        perMatrix += uint64_t(v);
        ASSERT_TRUE(reg.lookup("serve_schedule_hits", labels, &v));
        ASSERT_TRUE(reg.lookup("serve_modeled_cycles", labels, &v));
        EXPECT_EQ(uint64_t(v), fleet.at(i).engine().totalCycles());
    }
    EXPECT_EQ(perMatrix, res.completed)
        << "per-matrix label sets must partition the stream";

    // Exact per-request samples back the SLO accounting.
    ASSERT_EQ(res.latencyUs.size(), trace.size());
    ASSERT_EQ(res.queueWaitUs.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_GT(res.latencyUs[i], 0.0) << "request " << i;
        EXPECT_LE(res.queueWaitUs[i], res.latencyUs[i]) << "request " << i;
    }
    EXPECT_GE(res.queueHighWater, 1u);
}

TEST(ServeSlo, AccountingFromExactSamples)
{
    ServeFleet fleet = makeFleet();
    std::vector<ServeRequest> trace =
        generateTrace(smallTrace(50), fleet.pdeMask());
    ServeConfig cfg;
    cfg.threads = 2;
    cfg.batchWindow = 4;
    ServeResult res = serve(fleet, trace, cfg);

    SloReport generous = computeSlo(res, trace, fleet, 1e12);
    EXPECT_EQ(generous.total.requests, trace.size());
    EXPECT_EQ(generous.total.good, trace.size());
    EXPECT_EQ(generous.total.bad, 0u);
    EXPECT_DOUBLE_EQ(generous.burnRate(), 0.0);
    EXPECT_LE(generous.total.p50, generous.total.p95);
    EXPECT_LE(generous.total.p95, generous.total.p99);
    EXPECT_LE(generous.total.p99, generous.total.p999);

    SloReport strict = computeSlo(res, trace, fleet, 1e-6);
    EXPECT_EQ(strict.total.good + strict.total.bad, trace.size());
    EXPECT_EQ(strict.total.bad, trace.size())
        << "every real latency exceeds a 1 picosecond target";
    EXPECT_DOUBLE_EQ(strict.badFraction(), 1.0);
    EXPECT_NEAR(strict.burnRate(), 100.0, 1e-9);

    ASSERT_EQ(strict.perMatrix.size(), fleet.size());
    uint64_t reqs = 0, good = 0, bad = 0;
    for (const SloBucket &b : strict.perMatrix) {
        reqs += b.requests;
        good += b.good;
        bad += b.bad;
    }
    EXPECT_EQ(reqs, trace.size());
    EXPECT_EQ(good + bad, trace.size());
}

TEST(ServeSlo, HandComputedCountsAndBurnRate)
{
    ServeFleet fleet = makeFleet();
    std::vector<ServeRequest> trace(4);
    for (uint32_t i = 0; i < 4; ++i) {
        trace[i].id = i;
        trace[i].matrix = i % 2;
    }
    ServeResult res;
    res.completed = 4;
    res.latencyUs = {1.0, 2.0, 3.0, 4.0};

    SloReport r = computeSlo(res, trace, fleet, 2.5, 0.95);
    EXPECT_EQ(r.total.good, 2u);
    EXPECT_EQ(r.total.bad, 2u);
    EXPECT_DOUBLE_EQ(r.badFraction(), 0.5);
    EXPECT_NEAR(r.burnRate(), 0.5 / 0.05, 1e-9);
    EXPECT_DOUBLE_EQ(r.total.p50, 2.5);

    // Matrix 0 saw latencies {1, 3}; matrix 1 saw {2, 4}; matrix 2
    // served nothing but keeps its row so fleet indexing holds.
    ASSERT_EQ(r.perMatrix.size(), fleet.size());
    EXPECT_EQ(r.perMatrix[0].requests, 2u);
    EXPECT_EQ(r.perMatrix[0].good, 1u);
    EXPECT_EQ(r.perMatrix[0].bad, 1u);
    EXPECT_DOUBLE_EQ(r.perMatrix[0].p50, 2.0);
    EXPECT_EQ(r.perMatrix[1].requests, 2u);
    EXPECT_DOUBLE_EQ(r.perMatrix[1].p50, 3.0);
    EXPECT_EQ(r.perMatrix[2].requests, 0u);
    EXPECT_EQ(r.perMatrix[2].good, 0u);
    EXPECT_EQ(r.perMatrix[2].bad, 0u);
}
