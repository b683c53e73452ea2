/**
 * @file
 * Diff-engine tests: the two hard invariants (self-diff is structurally
 * empty; bucket deltas conserve the total cycle delta exactly) across
 * kernels and engine modes, a real config perturbation (cache line
 * width) attributed to the cache buckets, bench-row alignment with
 * missing rows, metrics diffs, schema/kind refusal, the --fail-on
 * rule grammar, and the BENCH gate: one drift at a time spliced into
 * a copy of a committed BENCH_*.json baseline.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/report.hh"
#include "alrescha/sim/diff.hh"
#include "alrescha/sim/profile.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "reference/reference_engine.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

/** Run one kernel under the recorder and return the full sim report
 *  document (stats + utilization + embedded profile), exactly like the
 *  --ab harness builds its two sides.  @p reference runs the kernel
 *  through the reference engine instead of the scheduled one. */
json::Value
simDoc(const std::string &kernel, const AccelParams &params,
       bool reference = false)
{
    profile::reset();
    profile::setEnabled(true);
    CsrMatrix a = gen::stencil2d(16, 16);
    Accelerator acc(params);
    if (kernel == "symgs") {
        acc.loadPde(a);
        DenseVector b(a.rows(), 1.0), x(a.rows(), 0.0);
        if (reference)
            referenceSymgsSweep(acc, b, x, GsSweep::Symmetric);
        else
            acc.symgsSweep(b, x, GsSweep::Symmetric);
    } else {
        acc.loadSpmvOnly(a);
        DenseVector x(a.cols(), 1.0);
        if (reference)
            referenceSpmv(acc, x);
        else
            acc.spmv(x);
    }
    SimReportOptions opt;
    opt.kernel = kernel;
    opt.omega = params.omega;
    opt.simdMode = params.simdMode;
    opt.utilization = true;
    opt.stats = true;
    std::ostringstream os;
    writeSimReportJson(os, acc, opt);
    profile::setEnabled(false);
    profile::reset();

    json::Parsed p = json::parse(os.str());
    EXPECT_TRUE(p.ok) << p.error;
    return p.value;
}

diff::Document
diffOk(const json::Value &oldDoc, const json::Value &newDoc)
{
    diff::Document d;
    std::string err;
    EXPECT_TRUE(diff::diff(oldDoc, newDoc, &d, &err)) << err;
    return d;
}

AccelParams
simdMode(bool simd)
{
    AccelParams p;
    p.simdMode = simd ? SimdMode::Auto : SimdMode::Scalar;
    return p;
}

TEST(Diff, SelfDiffEmptyAcrossKernelsAndEngines)
{
    for (const char *kernel : {"spmv", "symgs"}) {
        // The reference engine, scheduled scalar, and SIMD replay.
        for (int mode = 0; mode < 3; ++mode) {
            json::Value doc = simDoc(kernel, simdMode(mode == 2), mode == 0);
            diff::Document d = diffOk(doc, doc);
            EXPECT_TRUE(d.empty()) << kernel;
            EXPECT_TRUE(d.conserved) << kernel;
            EXPECT_EQ(d.rows.size(), 0u) << kernel;
            EXPECT_EQ(d.totalCycleDelta, 0) << kernel;
            EXPECT_EQ(d.kind, diff::ArtifactKind::Sim);
        }
    }
}

TEST(Diff, EngineModesAreBitIdentical)
{
    // The reference engine, the scheduled scalar walk, and the SIMD
    // replay are one timing model: their full sim documents must diff
    // empty (the "version" provenance may differ, nothing else).
    json::Value interp = simDoc("spmv", simdMode(false), true);
    json::Value simd = simDoc("spmv", simdMode(true));
    diff::Document d = diffOk(interp, simd);
    EXPECT_EQ(d.totalCycleDelta, 0);
    EXPECT_EQ(d.totalByteDelta, 0);
    EXPECT_TRUE(d.conserved);
    for (const diff::RowDiff &r : d.rows) {
        EXPECT_TRUE(r.buckets.empty());
        EXPECT_TRUE(r.stats.empty());
        EXPECT_TRUE(r.energy.empty());
    }
}

TEST(Diff, CacheLinePerturbationIsAttributedAndConserved)
{
    AccelParams base;
    AccelParams narrow = base;
    narrow.cacheLineBytes = 32;

    // SymGS reads x through the local cache on its critical path, so
    // the line width is a real timing knob there (pure stencil SpMV
    // never misses and would diff empty).
    json::Value before = simDoc("symgs", base);
    json::Value after = simDoc("symgs", narrow);
    diff::Document d = diffOk(before, after);

    // A real knob change must move cycles...
    EXPECT_FALSE(d.empty());
    EXPECT_NE(d.totalCycleDelta, 0);
    // ...and the per-bucket attribution must account for every one of
    // them: conservation is exact, not approximate.
    EXPECT_TRUE(d.conserved);
    ASSERT_EQ(d.rows.size(), 1u);
    int64_t bucket_sum = 0;
    bool cache_moved = false;
    for (const diff::BucketDelta &b : d.rows[0].buckets) {
        bucket_sum += b.cycleDelta();
        if (b.cause == "cache_miss" || b.cause == "cache_access")
            cache_moved = b.cycleDelta() != 0 || cache_moved;
    }
    EXPECT_EQ(bucket_sum, d.totalCycleDelta);
    EXPECT_TRUE(cache_moved)
        << "halving the cache line moved no cache bucket";
}

TEST(Diff, TextAndFoldedOutputsCarryTheMovers)
{
    json::Value before = simDoc("symgs", AccelParams{});
    AccelParams narrow;
    narrow.cacheLineBytes = 32;
    json::Value after = simDoc("symgs", narrow);
    diff::Document d = diffOk(before, after);

    std::ostringstream text;
    diff::writeText(text, d);
    EXPECT_NE(text.str().find("totals:"), std::string::npos);

    std::ostringstream js;
    diff::writeJson(js, d);
    json::Parsed parsed = json::parse(js.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const json::Value *conserved = parsed.value.find("conserved");
    ASSERT_NE(conserved, nullptr);
    EXPECT_TRUE(conserved->asBool());
    const json::Value *empty = parsed.value.find("empty");
    ASSERT_NE(empty, nullptr);
    EXPECT_FALSE(empty->asBool());

    std::ostringstream pos, neg;
    diff::writeFolded(pos, neg, d);
    // Every changed bucket folds into exactly one of the two streams.
    EXPECT_FALSE(pos.str().empty() && neg.str().empty());
}

json::Value
benchDoc(const std::string &rows)
{
    std::string text = R"({"schema_version": 1, "bench": "t",)"
                       R"( "kernel": "spmv", "datasets": [)" +
                       rows + "]}";
    json::Parsed p = json::parse(text);
    EXPECT_TRUE(p.ok) << p.error;
    return p.value;
}

TEST(Diff, BenchRowAlignment)
{
    json::Value oldDoc = benchDoc(
        R"({"name": "a", "suite": "s", "wall_ms": 1.0, "cycles": 100,
            "bytes_streamed": 640, "stats": {"alu_ops": 10}},
           {"name": "gone", "suite": "s", "wall_ms": 1.0, "cycles": 5,
            "bytes_streamed": 64})");
    json::Value newDoc = benchDoc(
        R"({"name": "a", "suite": "s", "wall_ms": 9.0, "cycles": 130,
            "bytes_streamed": 640, "stats": {"alu_ops": 12}},
           {"name": "fresh", "suite": "s", "wall_ms": 1.0, "cycles": 7,
            "bytes_streamed": 64})");

    diff::Document d = diffOk(oldDoc, newDoc);
    EXPECT_EQ(d.kind, diff::ArtifactKind::Bench);
    EXPECT_EQ(d.totalCycleDelta, 130 - 100 + 7 - 5);

    bool saw_a = false, saw_gone = false, saw_fresh = false;
    for (const diff::RowDiff &r : d.rows) {
        if (r.name == "a") {
            saw_a = true;
            EXPECT_EQ(r.cycleDelta(), 30);
            // wall_ms is host noise, never a diffable stat.
            for (const diff::ValueDelta &v : r.stats)
                EXPECT_EQ(v.path.find("wall_ms"), std::string::npos);
            ASSERT_EQ(r.stats.size(), 1u);
            EXPECT_EQ(r.stats[0].path, "stats.alu_ops");
            EXPECT_DOUBLE_EQ(r.stats[0].delta(), 2.0);
        } else if (r.name == "gone") {
            saw_gone = true;
            EXPECT_TRUE(r.onlyOld);
        } else if (r.name == "fresh") {
            saw_fresh = true;
            EXPECT_TRUE(r.onlyNew);
        }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_gone);
    EXPECT_TRUE(saw_fresh);

    // Rows present on one side only always trip a fail rule, even a
    // loose one: appearing/disappearing datasets are never "no change".
    diff::FailRule loose;
    loose.metric = diff::FailRule::Metric::Cycles;
    loose.threshold = 1e12;
    EXPECT_TRUE(diff::exceeds(d, loose));
}

TEST(Diff, SelfDiffOfBenchIsEmpty)
{
    json::Value doc = benchDoc(
        R"({"name": "a", "suite": "s", "wall_ms": 1.25, "cycles": 100,
            "bytes_streamed": 640, "stats": {"alu_ops": 10},
            "energy": {"dram": 0.5, "total": 0.75}})");
    diff::Document d = diffOk(doc, doc);
    EXPECT_TRUE(d.empty());

    // Same modeled numbers but different host wall time: still empty,
    // wall_ms is excluded from bench diffs by design.
    json::Value slower = benchDoc(
        R"({"name": "a", "suite": "s", "wall_ms": 80.0, "cycles": 100,
            "bytes_streamed": 640, "stats": {"alu_ops": 10},
            "energy": {"dram": 0.5, "total": 0.75}})");
    EXPECT_TRUE(diffOk(doc, slower).empty());
}

TEST(Diff, MetricsSnapshots)
{
    auto snapshot = [](double reqs) {
        metrics::Registry reg;
        reg.counter("serve_requests_total", "requests").add(reqs);
        reg.gauge("queue_depth", "depth").set(3.0);
        std::ostringstream os;
        reg.writeJson(os);
        json::Parsed p = json::parse(os.str());
        EXPECT_TRUE(p.ok) << p.error;
        return p.value;
    };

    json::Value a = snapshot(100.0);
    EXPECT_EQ(diff::classify(a), diff::ArtifactKind::Metrics);
    EXPECT_TRUE(diffOk(a, a).empty());

    diff::Document d = diffOk(a, snapshot(140.0));
    ASSERT_EQ(d.rows.size(), 1u);
    bool saw = false;
    for (const diff::ValueDelta &v : d.rows[0].stats) {
        if (v.path.find("serve_requests_total") != std::string::npos) {
            saw = true;
            EXPECT_DOUBLE_EQ(v.delta(), 40.0);
        }
    }
    EXPECT_TRUE(saw);
}

TEST(Diff, RefusesMismatchedDocuments)
{
    json::Value sim = simDoc("spmv", AccelParams{});
    json::Value bench = benchDoc(
        R"({"name": "a", "suite": "s", "wall_ms": 1.0, "cycles": 1,
            "bytes_streamed": 64})");

    diff::Document d;
    std::string err;

    // Different artifact kinds never diff.
    EXPECT_FALSE(diff::diff(sim, bench, &d, &err));
    EXPECT_NE(err.find("kind"), std::string::npos) << err;

    // Unrecognized documents are refused, not guessed at.
    json::Parsed junk = json::parse(R"({"foo": 1})");
    ASSERT_TRUE(junk.ok);
    EXPECT_EQ(diff::classify(junk.value), diff::ArtifactKind::Unknown);
    EXPECT_FALSE(diff::diff(junk.value, junk.value, &d, &err));

    // A schema_version bump refuses to diff against the old artifact.
    std::string bumped = json::dump(sim);
    size_t at = bumped.find("\"schema_version\": 1");
    ASSERT_NE(at, std::string::npos);
    bumped.replace(at, 19, "\"schema_version\": 2");
    json::Parsed other = json::parse(bumped);
    ASSERT_TRUE(other.ok) << other.error;
    EXPECT_FALSE(diff::diff(sim, other.value, &d, &err));
    EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

TEST(Diff, FailRuleGrammar)
{
    diff::FailRule r;
    std::string err;

    ASSERT_TRUE(diff::parseFailRule("cycles>0.1%", &r, &err)) << err;
    EXPECT_EQ(r.metric, diff::FailRule::Metric::Cycles);
    EXPECT_DOUBLE_EQ(r.threshold, 0.1);
    EXPECT_TRUE(r.relative);

    ASSERT_TRUE(diff::parseFailRule("bytes>1024", &r, &err)) << err;
    EXPECT_EQ(r.metric, diff::FailRule::Metric::Bytes);
    EXPECT_DOUBLE_EQ(r.threshold, 1024.0);
    EXPECT_FALSE(r.relative);

    ASSERT_TRUE(diff::parseFailRule("energy>0", &r, &err)) << err;
    EXPECT_EQ(r.metric, diff::FailRule::Metric::Energy);
    EXPECT_FALSE(diff::describe(r).empty());

    EXPECT_FALSE(diff::parseFailRule("frobs>1", &r, &err));
    EXPECT_FALSE(diff::parseFailRule("cycles<1", &r, &err));
    EXPECT_FALSE(diff::parseFailRule("cycles>", &r, &err));
    EXPECT_FALSE(diff::parseFailRule("cycles>x", &r, &err));
    EXPECT_FALSE(diff::parseFailRule("", &r, &err));
}

TEST(Diff, FailRuleThresholds)
{
    json::Value oldDoc = benchDoc(
        R"({"name": "a", "suite": "s", "wall_ms": 1.0, "cycles": 1000,
            "bytes_streamed": 640})");
    json::Value newDoc = benchDoc(
        R"({"name": "a", "suite": "s", "wall_ms": 1.0, "cycles": 1005,
            "bytes_streamed": 640})");
    diff::Document d = diffOk(oldDoc, newDoc);

    diff::FailRule r;
    std::string err;

    // +5 cycles on 1000: above 0.1%, below 1%.
    ASSERT_TRUE(diff::parseFailRule("cycles>0.1%", &r, &err));
    EXPECT_TRUE(diff::exceeds(d, r));
    ASSERT_TRUE(diff::parseFailRule("cycles>1%", &r, &err));
    EXPECT_FALSE(diff::exceeds(d, r));

    // Absolute: above 4 cycles, not above 5.
    ASSERT_TRUE(diff::parseFailRule("cycles>4", &r, &err));
    EXPECT_TRUE(diff::exceeds(d, r));
    ASSERT_TRUE(diff::parseFailRule("cycles>5", &r, &err));
    EXPECT_FALSE(diff::exceeds(d, r));

    // Bytes did not move.
    ASSERT_TRUE(diff::parseFailRule("bytes>0", &r, &err));
    EXPECT_FALSE(diff::exceeds(d, r));
}

// ---------------------------------------------------------------------
// The BENCH gate: alr_diff --fail-on 'cycles>0,bytes>0,energy>0,stats>0'

const char *const kGate = "cycles>0,bytes>0,energy>0,stats>0";

json::Value
committedBench(const char *file)
{
    json::Parsed p =
        json::parseFile(std::string(ALR_SOURCE_DIR) + "/" + file);
    EXPECT_TRUE(p.ok) << p.error;
    return p.value;
}

/** @p obj with member @p key set to @p v (dropped when v is null). */
json::Value
withMember(const json::Value &obj, const std::string &key,
           const json::Value *v)
{
    json::Value out = json::Value::object();
    for (const auto &[k, m] : obj.members())
        if (k != key)
            out.set(k, m);
        else if (v)
            out.set(k, *v);
    if (v && !obj.find(key))
        out.set(key, *v);
    return out;
}

/** @p doc with its first dataset row replaced by edit(row). */
template <typename Edit>
json::Value
withFirstRow(const json::Value &doc, Edit edit)
{
    json::Value rows = *doc.find("datasets");
    rows.elements()[0] = edit(rows.elements()[0]);
    return withMember(doc, "datasets", &rows);
}

/** @p doc with leaf @p key of its first row's @p sub object set to @p v
 *  (dropped when v is null). */
json::Value
withFirstRowLeaf(const json::Value &doc, const char *sub, const char *key,
                 const json::Value *v)
{
    return withFirstRow(doc, [&](const json::Value &row) {
        json::Value s = withMember(*row.find(sub), key, v);
        return withMember(row, sub, &s);
    });
}

/** Leaf @p key of the first row's @p sub object of @p doc. */
double
firstRowLeaf(const json::Value &doc, const char *sub, const char *key)
{
    return doc.find("datasets")->elements()[0].find(sub)->numberAt(key);
}

/** The gate's verdict: empty when @p drifted passes against @p base. */
std::string
gateOf(const json::Value &base, const json::Value &drifted)
{
    std::vector<diff::FailRule> rules;
    std::string err;
    EXPECT_TRUE(diff::parseFailRules(kGate, &rules, &err)) << err;
    return diff::gate(diffOk(base, drifted), rules);
}

TEST(DiffGate, RuleListGrammar)
{
    std::vector<diff::FailRule> rules;
    std::string err;
    ASSERT_TRUE(diff::parseFailRules(kGate, &rules, &err)) << err;
    ASSERT_EQ(rules.size(), 4u);
    EXPECT_EQ(rules[3].metric, diff::FailRule::Metric::Stats);
    ASSERT_TRUE(diff::parseFailRules("stats>1%", &rules, &err)) << err;
    ASSERT_EQ(rules.size(), 1u);
    EXPECT_TRUE(rules[0].relative);

    EXPECT_FALSE(diff::parseFailRules("cycles>0,", &rules, &err));
    EXPECT_FALSE(diff::parseFailRules(",cycles>0", &rules, &err));
    EXPECT_FALSE(diff::parseFailRules("cycles>0,,bytes>0", &rules, &err));
    EXPECT_FALSE(diff::parseFailRules("", &rules, &err));
}

TEST(DiffGate, CommittedBaselinesPassAgainstThemselves)
{
    for (const char *file :
         {"BENCH_spmv.json", "BENCH_pcg.json", "BENCH_symgs.json",
          "BENCH_serve.json", "BENCH_energy.json"}) {
        json::Value doc = committedBench(file);
        EXPECT_EQ(gateOf(doc, doc), "") << file;
    }
}

TEST(DiffGate, StatsLeafDriftTrips)
{
    json::Value base = committedBench("BENCH_spmv.json");
    json::Value bumped(firstRowLeaf(base, "stats", "alu_ops") + 1.0);
    EXPECT_NE(gateOf(base, withFirstRowLeaf(base, "stats", "alu_ops",
                                            &bumped)),
              "");
}

TEST(DiffGate, EnergyComponentDriftTrips)
{
    // The row total stays put: only the component rule can see it.
    json::Value base = committedBench("BENCH_energy.json");
    json::Value scaled(firstRowLeaf(base, "energy", "dram") * (1.0 + 1e-7));
    EXPECT_NE(gateOf(base, withFirstRowLeaf(base, "energy", "dram",
                                            &scaled)),
              "");
}

TEST(DiffGate, MissingTopLevelKeyTrips)
{
    json::Value base = committedBench("BENCH_serve.json");
    json::Value drifted = withMember(base, "batch_size_histogram", nullptr);
    EXPECT_NE(gateOf(base, drifted), "");
}

TEST(DiffGate, RowShapeDriftTrips)
{
    // Every BENCH_serve row has stats.schedule_evictions == 0, so a
    // value diff (absent leaf = 0, nulls skipped) sees none of these.
    json::Value base = committedBench("BENCH_serve.json");
    const json::Value null, zero(0), suite("other"), *drop = nullptr;
    for (auto [key, v] : {std::pair{"schedule_evictions", drop},
                          {"schedule_evictions", &null},
                          {"schedule_restores", &zero}})
        EXPECT_NE(gateOf(base, withFirstRowLeaf(base, "stats", key, v)), "")
            << key;
    // Likewise a new energy component that reads 0.
    json::Value energy = committedBench("BENCH_energy.json");
    EXPECT_NE(gateOf(energy, withFirstRowLeaf(energy, "energy", "leakage",
                                              &zero)),
              "");
    // Rows align by name; a row that moves to another suite is drift.
    EXPECT_NE(gateOf(base, withFirstRow(base, [&](const json::Value &row) {
                  return withMember(row, "suite", &suite);
              })),
              "");
}

TEST(DiffGate, DocumentWithoutRowsTrips)
{
    json::Value base = committedBench("BENCH_spmv.json");
    json::Value none = json::Value::array();
    json::Value empty = withMember(base, "datasets", &none);
    EXPECT_NE(gateOf(empty, empty), "");
}

TEST(DiffGate, RepeatedRowIsMalformed)
{
    json::Value base = committedBench("BENCH_pcg.json");
    json::Value rows = *base.find("datasets");
    json::Value copy = rows.elements()[0];
    json::Value cycles(copy.intAt("cycles") + 12345);
    rows.append(withMember(copy, "cycles", &cycles));
    json::Value drifted = withMember(base, "datasets", &rows);

    diff::Document d;
    std::string err;
    EXPECT_FALSE(diff::diff(base, drifted, &d, &err));
    EXPECT_NE(err.find("repeats row"), std::string::npos) << err;
}

TEST(DiffGate, WallTimeOutsideToleranceTrips)
{
    json::Value base = committedBench("BENCH_symgs.json");
    double wall = base.find("datasets")->elements()[0].numberAt("wall_ms");
    auto withWall = [&](double ms) {
        return withFirstRow(base, [&](const json::Value &row) {
            json::Value v(ms);
            return withMember(row, "wall_ms", &v);
        });
    };
    EXPECT_NE(gateOf(base, withWall(0.0)), "");
    EXPECT_NE(gateOf(base, withWall(30.0 * wall)), "");
    EXPECT_NE(gateOf(base, withWall(wall / 30.0)), "");
    // Host noise inside the bound is not a regression.
    EXPECT_EQ(gateOf(base, withWall(20.0 * wall)), "");
}

TEST(DiffGate, ProfileBucketMoveTrips)
{
    // Move cycles and bytes from one profile bucket to another: the
    // totals and conservation hold, only the bucket rules can see it.
    json::Value base = simDoc("spmv", AccelParams{});
    json::Value buckets = *base.find("profile")->find("buckets");
    std::vector<json::Value> &b = buckets.elements();
    ASSERT_GE(b.size(), 2u);
    for (const char *field : {"cycles", "bytes"}) {
        json::Value from(b[0].intAt(field) - 1), to(b[1].intAt(field) + 1);
        b[0] = withMember(b[0], field, &from);
        b[1] = withMember(b[1], field, &to);
    }
    json::Value profile =
        withMember(*base.find("profile"), "buckets", &buckets);
    json::Value moved = withMember(base, "profile", &profile);

    diff::Document d = diffOk(base, moved);
    EXPECT_TRUE(d.conserved);
    EXPECT_EQ(d.totalCycleDelta, 0);
    for (const char *spec : {"cycles>0", "bytes>0"}) {
        std::vector<diff::FailRule> rules;
        std::string err;
        ASSERT_TRUE(diff::parseFailRules(spec, &rules, &err)) << err;
        EXPECT_NE(diff::gate(d, rules), "") << spec;
    }
}

TEST(DiffGate, WallDerivedServeFieldsDoNotTrip)
{
    json::Value base = committedBench("BENCH_serve.json");
    json::Value rows = *base.find("datasets");
    for (json::Value &row : rows.elements())
        for (const char *field : {"requests_per_sec", "latency_p50_ns",
                                  "latency_p95_ns", "latency_p99_ns"}) {
            json::Value v(3.0 * row.numberAt(field));
            row = withMember(row, field, &v);
        }
    json::Value drifted = withMember(base, "datasets", &rows);
    for (const char *field :
         {"batch_speedup_wall", "observability_overhead_wall"}) {
        json::Value v(2.0 * drifted.numberAt(field));
        drifted = withMember(drifted, field, &v);
    }
    EXPECT_FALSE(diffOk(base, drifted).empty());
    EXPECT_EQ(gateOf(base, drifted), "");
}

} // namespace
