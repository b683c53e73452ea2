/**
 * @file
 * Observability tests: Distribution::merge, the hierarchical JSON stats
 * export, the StatSnapshotter, the cycle-attributed timeline (Chrome
 * trace export), the reconfiguration-overlap fraction, and the trace
 * sink's long-line / concurrency behaviour.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/multi.hh"
#include "common/stats.hh"
#include "common/timeline.hh"
#include "datasets/suites.hh"
#include "reference/reference_engine.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

/**
 * Minimal recursive-descent JSON syntax validator, enough to assert the
 * exporters emit well-formed documents without the library's own
 * parser (alr_diff check -- the artifact_check_* tests and DiffCheck.*
 * in test_diff.cc -- parses them and checks their schemas).
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text)
        : _p(text.c_str()), _end(text.c_str() + text.size())
    {
    }

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return _p == _end;
    }

  private:
    void skipWs()
    {
        while (_p < _end && std::isspace(static_cast<unsigned char>(*_p)))
            ++_p;
    }

    bool literal(const char *s)
    {
        const char *q = _p;
        for (; *s; ++s, ++q) {
            if (q >= _end || *q != *s)
                return false;
        }
        _p = q;
        return true;
    }

    bool string()
    {
        if (_p >= _end || *_p != '"')
            return false;
        ++_p;
        while (_p < _end && *_p != '"') {
            if (*_p == '\\') {
                ++_p;
                if (_p >= _end)
                    return false;
            }
            ++_p;
        }
        if (_p >= _end)
            return false;
        ++_p; // closing quote
        return true;
    }

    bool number()
    {
        const char *start = _p;
        if (_p < _end && (*_p == '-' || *_p == '+'))
            ++_p;
        bool digits = false;
        while (_p < _end &&
               (std::isdigit(static_cast<unsigned char>(*_p)) ||
                *_p == '.' || *_p == 'e' || *_p == 'E' || *_p == '-' ||
                *_p == '+')) {
            digits = digits ||
                     std::isdigit(static_cast<unsigned char>(*_p));
            ++_p;
        }
        return digits && _p > start;
    }

    bool value()
    {
        skipWs();
        if (_p >= _end)
            return false;
        switch (*_p) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++_p; // '{'
        skipWs();
        if (_p < _end && *_p == '}') {
            ++_p;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (_p >= _end || *_p != ':')
                return false;
            ++_p;
            if (!value())
                return false;
            skipWs();
            if (_p < _end && *_p == ',') {
                ++_p;
                continue;
            }
            break;
        }
        if (_p >= _end || *_p != '}')
            return false;
        ++_p;
        return true;
    }

    bool array()
    {
        ++_p; // '['
        skipWs();
        if (_p < _end && *_p == ']') {
            ++_p;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (_p < _end && *_p == ',') {
                ++_p;
                continue;
            }
            break;
        }
        if (_p >= _end || *_p != ']')
            return false;
        ++_p;
        return true;
    }

    const char *_p;
    const char *_end;
};

bool
jsonValid(const std::string &text)
{
    return JsonChecker(text).valid();
}

} // namespace

// ---------------------------------------------------------------------
// Distribution::merge

TEST(DistributionMerge, MatchesSamplingEverythingIntoOne)
{
    stats::Distribution d1, d2, all;
    for (double v : {1.0, 2.0, 3.0}) {
        d1.sample(v);
        all.sample(v);
    }
    for (double v : {10.0, 20.0}) {
        d2.sample(v);
        all.sample(v);
    }

    d1.merge(d2);
    EXPECT_EQ(d1.count(), all.count());
    EXPECT_DOUBLE_EQ(d1.sum(), all.sum());
    EXPECT_DOUBLE_EQ(d1.min(), all.min());
    EXPECT_DOUBLE_EQ(d1.max(), all.max());
    EXPECT_DOUBLE_EQ(d1.mean(), all.mean());
    EXPECT_DOUBLE_EQ(d1.variance(), all.variance());
    for (size_t b = 0; b < stats::Distribution::kBuckets; ++b)
        EXPECT_EQ(d1.buckets()[b], all.buckets()[b]) << "bucket " << b;
}

TEST(DistributionMerge, EmptyCasesAreNeutral)
{
    stats::Distribution filled, empty;
    filled.sample(4.0);
    filled.sample(8.0);

    stats::Distribution copy = filled;
    copy.merge(empty); // merging empty changes nothing
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_DOUBLE_EQ(copy.sum(), 12.0);
    EXPECT_DOUBLE_EQ(copy.min(), 4.0);
    EXPECT_DOUBLE_EQ(copy.max(), 8.0);

    stats::Distribution target; // merging into empty copies
    target.merge(filled);
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.min(), 4.0);
    EXPECT_DOUBLE_EQ(target.max(), 8.0);
    EXPECT_DOUBLE_EQ(target.variance(), filled.variance());
}

TEST(DistributionMerge, MinMaxAcrossDisjointRanges)
{
    // Extrema must come from the right operand when it covers a wider
    // range (regression for a naive min/max copy).
    stats::Distribution lo, hi;
    lo.sample(5.0);
    hi.sample(1.0);
    hi.sample(100.0);
    lo.merge(hi);
    EXPECT_DOUBLE_EQ(lo.min(), 1.0);
    EXPECT_DOUBLE_EQ(lo.max(), 100.0);
    EXPECT_EQ(lo.count(), 3u);
}

TEST(Distribution, PercentileApproximatesFromBuckets)
{
    stats::Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(double(i));
    // Log2 buckets are exact only at powers of two, but every estimate
    // stays within the sampled range and is monotone in p.
    double p50 = d.percentile(50.0);
    double p90 = d.percentile(90.0);
    double p99 = d.percentile(99.0);
    EXPECT_GE(p50, d.min());
    EXPECT_LE(p99, d.max());
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // 50% of 1..100 falls at 50; the enclosing bucket is [32, 64).
    EXPECT_GE(p50, 32.0);
    EXPECT_LE(p50, 64.0);
}

TEST(Distribution, PercentileEdgeCases)
{
    stats::Distribution empty;
    EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(100.0), 0.0);

    // A single sample is every percentile, including one that falls
    // mid-bucket (6 lives in [4, 8), whose upper edge is 8).
    stats::Distribution one;
    one.sample(6.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 6.0);
    EXPECT_DOUBLE_EQ(one.percentile(50.0), 6.0);
    EXPECT_DOUBLE_EQ(one.percentile(100.0), 6.0);

    // The endpoints report the exact extrema, not bucket edges: with
    // samples {0.5, 100}, p=0 must be 0.5 (bucket 0's upper edge is 1)
    // and p=100 must be 100 (its bucket's upper edge is 128).  Out-of-
    // range p clamps to the endpoints.
    stats::Distribution d;
    d.sample(0.5);
    d.sample(100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(d.percentile(-5.0), 0.5);
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(250.0), 100.0);
}

// ---------------------------------------------------------------------
// Hierarchical stats + JSON export

TEST(StatGroupJson, SchemaIsValidAndNamesRoundTrip)
{
    stats::StatGroup root("root");
    stats::Scalar s;
    s.add(7.0);
    stats::Distribution d;
    d.sample(3.0);
    d.sample(5.0);
    root.registerScalar("hits", &s, "a \"quoted\" desc");
    root.registerDistribution("lat", &d, "latencies");
    root.registerFormula("twice", [&] { return 2.0 * s.value(); },
                         "derived");

    stats::StatGroup child("sub");
    stats::Scalar cs;
    cs.add(1.0);
    child.registerScalar("n", &cs, "child scalar");
    root.addChild(&child);

    std::ostringstream os;
    json::Writer w(os);
    root.dumpJson(w);
    std::string doc = os.str();
    EXPECT_TRUE(jsonValid(doc)) << doc;
    EXPECT_NE(doc.find("\"group\": \"root\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"scalar\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"formula\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"distribution\""), std::string::npos);
    EXPECT_NE(doc.find("\"children\""), std::string::npos);

    // Every advertised name resolves through lookup().
    for (const std::string &name : root.statNames()) {
        EXPECT_TRUE(root.has(name)) << name;
        (void)root.lookup(name);
    }
    EXPECT_DOUBLE_EQ(root.lookup("sub.n"), 1.0);
    EXPECT_DOUBLE_EQ(root.lookup("twice"), 14.0);
}

TEST(StatGroupJson, EngineGroupExportsValidJson)
{
    Accelerator acc;
    acc.loadSpmvOnly(gen::stencil2d(16, 16, 5));
    acc.spmv(DenseVector(256, 1.0));

    std::ostringstream os;
    json::Writer w(os);
    acc.engine().statGroup().dumpJson(w);
    EXPECT_TRUE(jsonValid(os.str()));
    // Component groups surface as children with their stats intact.
    EXPECT_TRUE(acc.engine().statGroup().has("mem.bytes_streamed"));
    EXPECT_TRUE(acc.engine().statGroup().has("rcu.reconfig_hidden_frac"));
    EXPECT_GT(acc.engine().statGroup().lookup("mem.bytes_streamed"), 0.0);
}

TEST(StatSnapshotter, SamplesOnIntervalBoundaries)
{
    stats::StatGroup g("g");
    stats::Scalar s;
    g.registerScalar("x", &s, "test scalar");

    stats::StatSnapshotter snap(g, 100);
    snap.maybeSample(50); // before the first boundary: no row
    EXPECT_EQ(snap.rows(), 0u);
    s.add(1.0);
    snap.maybeSample(150); // crossed 100
    EXPECT_EQ(snap.rows(), 1u);
    snap.maybeSample(160); // same interval: no new row
    EXPECT_EQ(snap.rows(), 1u);
    s.add(1.0);
    snap.maybeSample(350); // crossed 200 (and 300): one row
    EXPECT_EQ(snap.rows(), 2u);
    snap.sampleNow(400); // unconditional
    EXPECT_EQ(snap.rows(), 3u);

    ASSERT_EQ(snap.names().size(), 1u);
    EXPECT_EQ(snap.names()[0], "x");

    std::ostringstream js;
    json::Writer w(js);
    snap.dumpJson(w);
    EXPECT_TRUE(jsonValid(js.str())) << js.str();
    EXPECT_NE(js.str().find("\"interval\": 100"), std::string::npos);

    std::ostringstream csv;
    snap.dumpCsv(csv);
    EXPECT_EQ(csv.str().substr(0, 8), "cycle,x\n");
}

// ---------------------------------------------------------------------
// Reconfiguration overlap (the paper's §4.4 claim as a number)

TEST(ReconfigHidden, GemvOnlySpmvIsFullyHidden)
{
    // A pure SpMV run never switches away from the GEMV path, so the
    // fraction is (vacuously) 1.0.
    Accelerator acc;
    acc.loadSpmvOnly(gen::stencil2d(24, 24, 5));
    acc.spmv(DenseVector(24 * 24, 1.0));
    EXPECT_DOUBLE_EQ(acc.engine().rcu().reconfigHiddenFraction(), 1.0);
    EXPECT_GT(acc.engine().rcu().reconfigurations(), 0.0);
}

TEST(ReconfigHidden, HandComputedFractionWithSlowSwitch)
{
    // Hand-computable overlap: with omega = 8 the drain is
    // aluLatency + treeDepth * reSumLatency = 3 + 3*3 = 12 cycles.
    // configCycles = 20 exposes 20 - 12 = 8 cycles on EVERY switch, so
    // the hidden fraction is exactly 12/20 = 0.6 regardless of how
    // many switches the run performs.
    AccelParams params;
    params.configCycles = 20;
    ASSERT_EQ(params.drainCycles(), 12);

    for (bool reference : {true, false}) {
        Accelerator acc(params);
        acc.loadPde(gen::stencil2d(16, 16, 5));
        DenseVector b(256, 1.0), x(256, 0.0);
        if (reference)
            referenceSymgsSweep(acc, b, x, GsSweep::Symmetric);
        else
            acc.symgsSweep(b, x, GsSweep::Symmetric);
        // The sweep must actually switch paths for the test to bite.
        ASSERT_GT(acc.engine().rcu().reconfigurations(), 1.0);
        EXPECT_DOUBLE_EQ(acc.engine().rcu().reconfigHiddenFraction(), 0.6)
            << (reference ? "reference" : "scheduled");
        EXPECT_DOUBLE_EQ(
            acc.engine().statGroup().lookup("rcu.reconfig_hidden_frac"),
            0.6);
    }
}

TEST(ReconfigHidden, DefaultConfigFullyOverlaps)
{
    // Table 5's configCycles = 8 < drain = 12: nothing is exposed.
    Accelerator acc;
    acc.loadPde(gen::stencil2d(16, 16, 5));
    DenseVector b(256, 1.0), x(256, 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);
    ASSERT_GT(acc.engine().rcu().reconfigurations(), 1.0);
    EXPECT_DOUBLE_EQ(acc.engine().rcu().reconfigHiddenFraction(), 1.0);
}

// ---------------------------------------------------------------------
// Utilization report vs Fig 16's modeled numbers

TEST(UtilizationReport, SequentialSplitAgreesWithFig16Metric)
{
    // Fig 16 reports engine().sequentialOpFraction() after a symmetric
    // sweep; --report must surface the same number, and it must equal
    // the seq/(seq+par) FLOP split the engine counters define.
    auto suite = scientificSuite();
    int checked = 0;
    for (const char *name : {"em-sphere", "thermal-grid"}) {
        const Dataset &d = findDataset(suite, name);
        Accelerator acc;
        acc.loadPde(d.matrix);
        acc.resetStats();
        DenseVector b(d.matrix.rows(), 1.0), x(d.matrix.rows(), 0.0);
        acc.symgsSweep(b, x, GsSweep::Symmetric);

        double fig16 = acc.engine().sequentialOpFraction();
        UtilizationReport u = acc.utilization();
        EXPECT_DOUBLE_EQ(u.sequentialOpFraction, fig16) << name;
        double seq = acc.engine().seqFlops();
        double par = acc.engine().parFlops();
        ASSERT_GT(seq + par, 0.0) << name;
        EXPECT_DOUBLE_EQ(fig16, seq / (seq + par)) << name;
        // A SymGS sweep has real sequential work but is not all-serial.
        EXPECT_GT(u.sequentialOpFraction, 0.0) << name;
        EXPECT_LT(u.sequentialOpFraction, 1.0) << name;
        ++checked;
    }
    EXPECT_EQ(checked, 2);
}

TEST(UtilizationReport, OccupanciesAndRooflineAreConsistent)
{
    Accelerator acc;
    acc.loadSpmvOnly(gen::stencil2d(32, 32, 5));
    acc.spmv(DenseVector(1024, 1.0));
    UtilizationReport u = acc.utilization();

    EXPECT_GT(u.cycles, 0u);
    EXPECT_GT(u.aluOccupancy, 0.0);
    EXPECT_LE(u.aluOccupancy, 1.0);
    EXPECT_GT(u.treeOccupancy, 0.0);
    EXPECT_GT(u.cacheHitRate, 0.0);
    EXPECT_LE(u.cacheHitRate, 1.0);
    EXPECT_GT(u.flops, 0.0);
    EXPECT_GT(u.dramBytes, 0.0);
    EXPECT_DOUBLE_EQ(u.arithmeticIntensity, u.flops / u.dramBytes);
    // Achieved throughput cannot beat the roofline at this intensity.
    EXPECT_LE(u.achievedGflops, u.attainableGflops * (1.0 + 1e-9));
    EXPECT_LE(u.attainableGflops, u.peakGflops);
    // SpMV is memory bound: the ceiling here is the bandwidth slope.
    EXPECT_LT(u.attainableGflops, u.peakGflops);
}

// ---------------------------------------------------------------------
// Multi-engine merged readout

TEST(MultiMerge, RunCyclesDistributionCoversAllEngines)
{
    MultiParams mp;
    mp.numEngines = 3;
    MultiAccelerator multi(mp);
    multi.loadSpmv(gen::stencil2d(32, 32, 5));

    DenseVector x(1024, 1.0);
    multi.spmv(x);
    multi.spmv(x);

    MultiReport r = multi.report();
    // Every engine with a non-empty slice ran twice; the merged
    // distribution sees each run exactly once.
    EXPECT_EQ(r.runCycles.count(), 6u);
    EXPECT_GT(r.runCycles.min(), 0.0);
    EXPECT_GE(r.runCycles.max(), r.runCycles.min());
    // The slowest engine's accumulated cycles bounds any single run.
    EXPECT_LE(uint64_t(r.runCycles.max()), r.computeCycles);

    // resetStats clears the per-engine distributions too.
    multi.resetStats();
    EXPECT_EQ(multi.report().runCycles.count(), 0u);
}

// ---------------------------------------------------------------------
// Timeline recorder + Chrome trace export

TEST(Timeline, SpansStayWithinRunCycleBounds)
{
    timeline::reset();
    timeline::setEnabled(true);
    Accelerator acc;
    acc.loadPde(gen::stencil2d(16, 16, 5));
    DenseVector b(256, 1.0), x(256, 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);
    acc.spmv(x);
    timeline::setEnabled(false);

    uint64_t total = acc.engine().totalCycles();
    auto evs = timeline::events();
    ASSERT_FALSE(evs.empty());
    EXPECT_EQ(timeline::dropped(), 0u);

    bool sawDataPath = false, sawMemory = false, sawFcu = false,
         sawCounter = false, sawChain = false;
    for (const auto &ev : evs) {
        ASSERT_NE(ev.name, nullptr);
        if (ev.pid != timeline::kPidModeled)
            continue;
        EXPECT_LE(ev.ts, total);
        if (ev.kind == timeline::Event::Kind::Span) {
            EXPECT_LE(ev.ts + ev.dur, total);
        }
        sawDataPath |= ev.tid == timeline::kTidDataPath;
        sawMemory |= ev.tid == timeline::kTidMemory;
        sawFcu |= ev.tid == timeline::kTidFcu;
        sawChain |= ev.tid == timeline::kTidChain;
        sawCounter |= ev.kind == timeline::Event::Kind::Counter;
    }
    EXPECT_TRUE(sawDataPath);
    EXPECT_TRUE(sawMemory);
    EXPECT_TRUE(sawFcu);
    EXPECT_TRUE(sawChain); // the SymGS sweep serializes D-SymGS chains
    EXPECT_TRUE(sawCounter);
}

TEST(Timeline, ChromeTraceExportIsValidJson)
{
    timeline::reset();
    timeline::setEnabled(true);
    Accelerator acc;
    acc.loadSpmvOnly(gen::stencil2d(16, 16, 5));
    acc.spmv(DenseVector(256, 1.0));
    timeline::setEnabled(false);

    std::ostringstream os;
    timeline::exportChromeTrace(os);
    std::string doc = os.str();
    EXPECT_TRUE(jsonValid(doc)) << doc.substr(0, 400);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(doc.find("\"ts\": "), std::string::npos);
    EXPECT_NE(doc.find("\"dur\": "), std::string::npos);
    EXPECT_NE(doc.find("modeled (1us = 1 cycle)"), std::string::npos);
}

TEST(Timeline, DisabledRecorderKeepsResultsIdentical)
{
    // The recorder only observes timestamps the engine already
    // computes: cycles and results match with it on or off.
    auto runOnce = [](bool on) {
        timeline::reset();
        timeline::setEnabled(on);
        Accelerator acc;
        acc.loadPde(gen::stencil2d(16, 16, 5));
        DenseVector b(256, 1.0), x(256, 0.0);
        acc.symgsSweep(b, x, GsSweep::Symmetric);
        timeline::setEnabled(false);
        return std::make_pair(acc.engine().totalCycles(), x);
    };
    auto off = runOnce(false);
    auto on = runOnce(true);
    EXPECT_EQ(off.first, on.first);
    EXPECT_EQ(off.second, on.second);
}

TEST(Timeline, RingOverwritesOldestAndCountsDrops)
{
    timeline::setCapacity(8);
    timeline::reset();
    timeline::setEnabled(true);
    for (uint64_t i = 0; i < 20; ++i)
        timeline::span("tick", "test", timeline::kTidDataPath, i, 1);
    timeline::setEnabled(false);

    auto evs = timeline::events();
    EXPECT_EQ(evs.size(), 8u);
    EXPECT_EQ(timeline::dropped(), 12u);
    // The survivors are the newest events, oldest first.
    EXPECT_EQ(evs.front().ts, 12u);
    EXPECT_EQ(evs.back().ts, 19u);

    timeline::setCapacity(size_t(1) << 18); // restore the default
}

TEST(Timeline, ParallelEngineWorkersRecordSafely)
{
    timeline::reset();
    timeline::setEnabled(true);
    AccelParams params;
    params.hostThreads = 3;
    Accelerator acc(params);
    acc.loadSpmvOnly(gen::stencil2d(32, 32, 5));
    DenseVector x(1024, 1.0);
    for (int i = 0; i < 4; ++i)
        acc.spmv(x);
    timeline::setEnabled(false);

    // Host spans land on per-thread tracks; per track, spans close in
    // wall-clock order, so end timestamps are monotone (a torn or
    // corrupted record would break this).
    std::map<uint32_t, uint64_t> lastEnd;
    size_t hostSpans = 0;
    for (const auto &ev : timeline::events()) {
        ASSERT_NE(ev.name, nullptr);
        if (ev.pid != timeline::kPidHost)
            continue;
        ASSERT_EQ(ev.kind, timeline::Event::Kind::Span);
        EXPECT_GE(ev.tid, 1u);
        uint64_t end = ev.ts + ev.dur;
        auto it = lastEnd.find(ev.tid);
        if (it != lastEnd.end()) {
            EXPECT_GE(end, it->second) << "tid " << ev.tid;
        }
        lastEnd[ev.tid] = end;
        ++hostSpans;
    }
    EXPECT_GE(hostSpans, 4u); // at least one per run
}
