/**
 * @file
 * Diff-engine tests: the two hard invariants (self-diff is structurally
 * empty; bucket deltas conserve the total cycle delta exactly) across
 * kernels and engine modes, a real config perturbation (cache line
 * width) attributed to the cache buckets, bench-row alignment with
 * missing rows, metrics diffs, schema/kind refusal, the --fail-on
 * rule grammar, and the BENCH gate: one drift at a time spliced into
 * a copy of a committed BENCH_*.json baseline.  Then the artifact
 * checker (diff::check): every invariant broken on its own in a
 * document its real emitter wrote, and a seeded mutation loop over the
 * same documents.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/report.hh"
#include "alrescha/serve.hh"
#include "alrescha/sim/diff.hh"
#include "alrescha/sim/profile.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/random.hh"
#include "common/timeline.hh"
#include "common/version.hh"
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

/** @p doc with the value at dotted @p path (array elements by index)
 *  set to @p v, or dropped when @p v is empty. */
json::Value
edited(const json::Value &doc, std::string_view path,
       const std::optional<json::Value> &v)
{
    const size_t dot = path.find('.');
    const std::string head(path.substr(0, dot));
    const std::string_view rest =
        dot == std::string_view::npos ? "" : path.substr(dot + 1);
    if (doc.isArray()) {
        json::Value out = doc;
        json::Value &e = out.elements()[std::stoul(head)];
        e = rest.empty() ? *v : edited(e, rest, v);
        return out;
    }
    if (rest.empty())
        return withMember(doc, head, v ? &*v : nullptr);
    json::Value child = edited(*doc.find(head), rest, v);
    return withMember(doc, head, &child);
}

/** The value at dotted @p path of @p doc. */
const json::Value &
at(const json::Value &doc, std::string_view path)
{
    const size_t dot = path.find('.');
    const std::string head(path.substr(0, dot));
    const json::Value &v = doc.isArray() ? doc.elements()[std::stoul(head)]
                                         : *doc.find(head);
    return dot == std::string_view::npos ? v : at(v, path.substr(dot + 1));
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
    const char *leaf = "datasets.0.stats.alu_ops";
    json::Value bumped(at(base, leaf).asDouble() + 1.0);
    EXPECT_NE(gateOf(base, edited(base, leaf, bumped)), "");
}

TEST(DiffGate, EnergyComponentDriftTrips)
{
    // The row total stays put: only the component rule can see it.
    json::Value base = committedBench("BENCH_energy.json");
    const char *leaf = "datasets.0.energy.dram";
    json::Value scaled(at(base, leaf).asDouble() * (1.0 + 1e-7));
    EXPECT_NE(gateOf(base, edited(base, leaf, scaled)), "");
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
    const std::optional<json::Value> drop;
    for (auto [key, v] : {std::pair{"schedule_evictions", drop},
                          {"schedule_evictions", json::Value()},
                          {"schedule_restores", json::Value(0)}})
        EXPECT_NE(gateOf(base, edited(base,
                                      std::string("datasets.0.stats.") + key,
                                      v)),
                  "")
            << key;
    // Likewise a new energy component that reads 0.
    json::Value energy = committedBench("BENCH_energy.json");
    EXPECT_NE(gateOf(energy, edited(energy, "datasets.0.energy.leakage",
                                    json::Value(0))),
              "");
    // Rows align by name; a row that moves to another suite is drift.
    EXPECT_NE(gateOf(base, edited(base, "datasets.0.suite",
                                  json::Value("other"))),
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
    const double wall = at(base, "datasets.0.wall_ms").asDouble();
    auto withWall = [&](double ms) {
        return edited(base, "datasets.0.wall_ms", json::Value(ms));
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

// ---------------------------------------------------------------------
// The artifact checker: alr_diff check

json::Value
parsed(const std::string &text)
{
    json::Parsed p = json::parse(text);
    EXPECT_TRUE(p.ok) << p.error;
    return p.value;
}

/** The artifacts of one profiled, timelined, snapshotted run on the
 *  SymGS layout (a symmetric sweep, then an SpMV), as their emitters
 *  write them. */
struct RunArtifacts
{
    json::Value report;   ///< stat tree, utilization, snapshots, profile
    json::Value profile;  ///< the standalone --profile document
    json::Value timeline; ///< the modeled and host planes
};

const RunArtifacts &
runArtifacts()
{
    static const RunArtifacts artifacts = [] {
        profile::reset();
        profile::setEnabled(true);
        timeline::reset();
        timeline::setEnabled(true);
        CsrMatrix a = gen::stencil2d(8, 8);
        Accelerator acc;
        acc.loadPde(a);
        stats::StatSnapshotter snap(acc.engine().statGroup(), 1000);
        snap.sampleNow(0);
        acc.engine().setSnapshotter(&snap);
        DenseVector b(a.rows(), 1.0), x(a.rows(), 0.0);
        acc.symgsSweep(b, x, GsSweep::Symmetric);
        acc.spmv(x);
        snap.sampleNow(acc.engine().totalCycles());
        acc.engine().setSnapshotter(nullptr);
        timeline::setEnabled(false);

        SimReportOptions opt;
        opt.kernel = "symgs";
        opt.utilization = true;
        opt.stats = true;
        opt.snapshots = &snap;
        std::ostringstream report, prof, trace;
        writeSimReportJson(report, acc, opt);
        profile::exportJson(prof, {opt.kernel, opt.omega,
                                   acc.engine().totalCycles(), opt.simdMode});
        timeline::exportChromeTrace(trace);
        profile::setEnabled(false);
        profile::reset();
        timeline::reset();
        return RunArtifacts{parsed(report.str()), parsed(prof.str()),
                            parsed(trace.str())};
    }();
    return artifacts;
}

/** The artifacts of one serving drain with the request-plane timeline
 *  and the metrics registry live, the report written by alr_serve's
 *  own --json emitter (writeServeReportJson). */
struct ServeArtifacts
{
    json::Value report;
    json::Value snapshot;
    std::string prom;
    json::Value timeline;
};

const ServeArtifacts &
serveArtifacts()
{
    static const ServeArtifacts artifacts = [] {
        ServeFleet fleet;
        fleet.add("poisson", gen::stencil2d(12, 12), true);
        fleet.add("cube", gen::stencil3d(6, 6, 6), true);
        fleet.warmSchedules();
        TraceParams tp;
        tp.requests = 80;
        const std::vector<ServeRequest> trace =
            generateTrace(tp, fleet.pdeMask());
        metrics::Registry registry;
        ServeConfig cfg;
        cfg.threads = 2;
        cfg.batchWindow = 4;
        cfg.metrics = &registry;
        timeline::reset();
        timeline::setPidMask((1u << timeline::kPidHost) |
                             (1u << timeline::kPidServe));
        timeline::setEnabled(true);
        const ServeResult res = serve(fleet, trace, cfg);
        timeline::setEnabled(false);
        timeline::setPidMask(~0u);

        const std::string path = testing::TempDir() + "diff_check_" +
                                 std::to_string(::getpid()) + ".json";
        EXPECT_TRUE(registry.writeSnapshotFiles(path, path + ".prom"));
        ServeArtifacts out;
        json::Parsed snap = json::parseFile(path);
        EXPECT_TRUE(snap.ok) << snap.error;
        out.snapshot = snap.value;
        std::ifstream prom(path + ".prom");
        out.prom.assign(std::istreambuf_iterator<char>(prom), {});
        std::remove(path.c_str());
        std::remove((path + ".prom").c_str());
        std::ostringstream tl;
        timeline::exportChromeTrace(tl);
        timeline::reset();
        out.timeline = parsed(tl.str());

        const SloReport slo = computeSlo(res, trace, fleet, 5000.0);
        std::ostringstream report;
        writeServeReportJson(report, fleet, cfg, res, slo,
                             {.requests = trace.size()});
        out.report = parsed(report.str());
        return out;
    }();
    return artifacts;
}

std::vector<diff::Artifact>
runSet(const json::Value &report, const json::Value &profile,
       const json::Value &timeline)
{
    return {{"report.json", report, ""},
            {"profile.json", profile, ""},
            {"timeline.json", timeline, ""}};
}

std::vector<diff::Artifact>
serveSet(const json::Value &report, const json::Value &snapshot,
         const std::string &prom, const json::Value &timeline)
{
    return {{"serve.json", report, ""},
            {"metrics.json", snapshot, ""},
            {"metrics.json.prom", {}, prom},
            {"serve_timeline.json", timeline, ""}};
}

std::string
listed(const std::vector<diff::Finding> &findings)
{
    std::string all;
    for (const diff::Finding &f : findings)
        all += "  " + f.text + "\n";
    return all;
}

/** check(@p set) names @p what, and alr_diff would exit @p code. */
void
expectFinding(const std::vector<diff::Artifact> &set, const std::string &what,
              int code = 1)
{
    const std::vector<diff::Finding> findings = diff::check(set);
    EXPECT_NE(listed(findings).find(what), std::string::npos)
        << "no finding names \"" << what << "\":\n"
        << listed(findings);
    EXPECT_EQ(diff::exitCode(findings), code) << listed(findings);
}

/** One invariant broken on its own: the value at @p path of one
 *  document set to @p value (dropped when empty), and the finding that
 *  must name it. */
struct Break
{
    std::string path;
    std::optional<json::Value> value;
    std::string finding;
    int code = 1;
};

/** Each of @p breaks, applied alone to document @p doc of the run set. */
void
expectRunBreaks(int doc, const std::vector<Break> &breaks)
{
    const RunArtifacts &r = runArtifacts();
    for (const Break &b : breaks) {
        SCOPED_TRACE(b.path);
        json::Value docs[] = {r.report, r.profile, r.timeline};
        docs[doc] = edited(docs[doc], b.path, b.value);
        expectFinding(runSet(docs[0], docs[1], docs[2]), b.finding, b.code);
    }
}

/** Each of @p breaks, applied alone to the serve report (doc 0) or the
 *  metrics snapshot (doc 1) of the serve set. */
void
expectServeBreaks(int doc, const std::vector<Break> &breaks)
{
    const ServeArtifacts &s = serveArtifacts();
    for (const Break &b : breaks) {
        SCOPED_TRACE(b.path);
        json::Value docs[] = {s.report, s.snapshot};
        docs[doc] = edited(docs[doc], b.path, b.value);
        expectFinding(serveSet(docs[0], docs[1], s.prom, s.timeline),
                      b.finding, b.code);
    }
}

enum { kReport, kProfile, kTimeline };
enum { kServeReport, kSnapshot };

TEST(DiffCheck, EmittedArtifactsHoldEveryInvariant)
{
    const RunArtifacts &r = runArtifacts();
    const ServeArtifacts &s = serveArtifacts();
    // The run set exercises every optional section.
    ASSERT_FALSE(at(r.profile, "critical_path.per_block_row")
                     .elements()
                     .empty());
    ASSERT_GE(at(r.report, "snapshots.rows").elements().size(), 2u);
    for (const auto &set :
         {runSet(r.report, r.profile, r.timeline),
          serveSet(s.report, s.snapshot, s.prom, s.timeline)}) {
        const std::vector<diff::Finding> findings = diff::check(set);
        EXPECT_TRUE(findings.empty()) << listed(findings);
        EXPECT_EQ(diff::exitCode(findings), 0);
    }
    // Each document holds its own invariants alone, too.
    for (const json::Value &doc :
         {r.report, r.profile, r.timeline, s.report, s.snapshot})
        EXPECT_TRUE(diff::check({{"a.json", doc, ""}}).empty());
}

TEST(DiffCheck, EveryKindCarriesTheSchemaVersion)
{
    const json::Value bumped(version::kJsonSchemaVersion + 1);
    expectRunBreaks(kReport, {{"schema_version", bumped, "schema_version"}});
    expectRunBreaks(kReport,
                    {{"profile.schema_version", bumped, "schema_version"}});
    expectRunBreaks(kProfile, {{"schema_version", bumped, "schema_version"}});
    expectRunBreaks(kTimeline, {{"schema_version", {}, "schema_version"}});
    expectServeBreaks(kServeReport,
                      {{"schema_version", bumped, "schema_version"}});
    expectServeBreaks(kSnapshot,
                      {{"schema_version", bumped, "schema_version"}});
}

TEST(DiffCheck, ProfileSchema)
{
    std::vector<Break> breaks;
    for (const char *key : {"version", "kernel", "omega", "attributed_cycles",
                            "attributed_bytes", "runs", "critical_path"})
        breaks.push_back({key, {}, std::string("no '") + key + "'"});
    for (const char *key :
         {"git", "simd_build", "simd_runtime", "omega_specializations"})
        breaks.push_back({std::string("version.") + key, {},
                          std::string("no '") + key + "'"});
    for (const char *key : {"dp", "block_row", "cause", "cycles", "bytes"})
        breaks.push_back({std::string("buckets.0.") + key, {},
                          std::string("no '") + key + "'"});
    breaks.push_back({"kernel", json::Value(7), "'kernel' is not a string"});
    breaks.push_back({"omega", json::Value(0), "omega is 0"});
    breaks.push_back({"runs", json::Value(0), "no runs recorded"});
    breaks.push_back({"buckets.0.dp", json::Value("GEMM"), "unknown dp"});
    breaks.push_back(
        {"buckets.0.cause", json::Value("idle"), "unknown dp or cause"});
    breaks.push_back({"buckets.0.block_row", json::Value(-2),
                      "block_row below -1"});
    breaks.push_back({"buckets.0.cycles", json::Value(-1),
                      "'cycles' is not a non-negative integer"});
    breaks.push_back({"buckets.0.bytes", json::Value(1.5),
                      "'bytes' is not a non-negative integer"});
    expectRunBreaks(kProfile, breaks);
}

TEST(DiffCheck, ProfileBucketsAreSortedAndNonEmpty)
{
    const json::Value &p = runArtifacts().profile;
    // Swap the first two buckets; then repeat the first.
    json::Value swapped = edited(p, "buckets.0", at(p, "buckets.1"));
    swapped = edited(swapped, "buckets.1", at(p, "buckets.0"));
    const RunArtifacts &r = runArtifacts();
    expectFinding(runSet(r.report, swapped, r.timeline), "not sorted");
    expectRunBreaks(kProfile,
                    {{"buckets.1", at(p, "buckets.0"), "not sorted"}});
    // An exported bucket holds cycles or bytes.
    json::Value empty = edited(p, "buckets.0.cycles", json::Value(0));
    empty = edited(empty, "buckets.0.bytes", json::Value(0));
    expectFinding(runSet(r.report, empty, r.timeline), "empty bucket");
}

TEST(DiffCheck, ProfileConservationIsExact)
{
    const json::Value &p = runArtifacts().profile;
    auto plus1 = [&](const char *path) {
        return json::Value(at(p, path).asInt() + 1);
    };
    const int lost = 3;
    expectRunBreaks(kProfile,
                    {{"attributed_cycles", plus1("attributed_cycles"),
                      "bucket cycles sum to", lost},
                     {"attributed_bytes", plus1("attributed_bytes"),
                      "bucket bytes sum to", lost},
                     {"buckets.0.cycles", plus1("buckets.0.cycles"),
                      "bucket cycles sum to", lost}});
    // total_cycles alone: the buckets still sum to attributed_cycles.
    const RunArtifacts &r = runArtifacts();
    expectFinding({{"profile.json", edited(p, "total_cycles",
                                           plus1("total_cycles")), ""}},
                  "attributed_cycles is not total_cycles", lost);
    // The embedded profile is held to the same contract.
    const json::Value &e = at(r.report, "profile");
    expectRunBreaks(kReport,
                    {{"profile.attributed_bytes",
                      json::Value(at(e, "attributed_bytes").asInt() + 1),
                      "bucket bytes sum to", lost}});
}

TEST(DiffCheck, CriticalPath)
{
    const json::Value &p = runArtifacts().profile;
    const std::string row = "critical_path.per_block_row.";
    std::vector<Break> breaks;
    for (const char *key : {"longest_chain_cycles", "longest_chain_rows",
                            "per_block_row"})
        breaks.push_back({std::string("critical_path.") + key, {},
                          std::string("no '") + key + "'"});
    for (const char *key :
         {"block_row", "chains", "chain_cycles", "wait_cycles",
          "start_stall_cycles", "slack_cycles", "dep_bound_chains"})
        breaks.push_back(
            {row + "0." + key, {}, std::string("no '") + key + "'"});
    breaks.push_back({"critical_path.longest_chain_rows",
                      json::Value::array(), "not a [first, last] pair"});
    breaks.push_back({row + "1.block_row", at(p, row + "0.block_row"),
                      "rows not sorted by block_row"});
    breaks.push_back({row + "0.dep_bound_chains",
                      json::Value(at(p, row + "0.chains").asInt() + 1),
                      "more dependence-bound chains than chains"});
    breaks.push_back({"critical_path.longest_chain_cycles", json::Value(0),
                      "longest_chain_cycles is 0"});
    breaks.push_back({row + "0.wait_cycles",
                      json::Value(at(p, row + "0.wait_cycles").asInt() + 1),
                      "wait cycles do not sum", 3});
    expectRunBreaks(kProfile, breaks);
}

TEST(DiffCheck, ProfileMatchesItsSimReport)
{
    const RunArtifacts &r = runArtifacts();
    const json::Value &p = r.profile;
    expectRunBreaks(kProfile, {{"kernel", json::Value("spmv"),
                                "kernel is not its sim report's"},
                               {"total_cycles",
                                json::Value(p.intAt("total_cycles") - 1),
                                "total_cycles is not its sim report's"}});
    // The embedded profile is matched against its enclosing report.
    expectRunBreaks(kReport, {{"profile.kernel", json::Value("pcg"),
                               "kernel is not its sim report's"}});
}

TEST(DiffCheck, SimReportSchema)
{
    const json::Value &rep = runArtifacts().report;
    std::vector<Break> breaks;
    for (const char *key : {"seconds", "dram_bytes"})
        breaks.push_back({key, {}, std::string("no '") + key + "'"});
    breaks.push_back({"kernel", json::Value(1), "'kernel' is not a string"});
    breaks.push_back({"cycles", json::Value(0), "cycles is 0"});
    // The stat tree, at the root group and one level down.
    breaks.push_back({"stats.group", {}, "no 'group'"});
    breaks.push_back(
        {"stats.stats", json::Value(1), "'stats' is not an object"});
    const std::string child = "stats.children.0.stats.";
    const std::string stat =
        at(rep, "stats.children.0.stats").members().front().first;
    breaks.push_back({child + stat + ".desc", {}, "no 'desc'"});
    breaks.push_back({child + stat + ".value", {}, "no 'value'"});
    breaks.push_back({child + stat + ".kind", json::Value("gauge"),
                      "unknown kind 'gauge'"});
    breaks.push_back(
        {"stats.stats.run_cycles.variance", {}, "no 'variance'"});
    for (const char *key :
         {"alu_occupancy", "tree_occupancy", "bandwidth_utilization",
          "cache_hit_rate", "sequential_op_fraction", "reconfig_hidden_frac",
          "arithmetic_intensity", "achieved_gflops", "attainable_gflops"})
        breaks.push_back({std::string("utilization.") + key, {},
                          std::string("no '") + key + "'"});
    for (const char *key :
         {"alu_occupancy", "cache_hit_rate", "reconfig_hidden_frac"})
        breaks.push_back({std::string("utilization.") + key,
                          json::Value(1.5), std::string(key) + " outside"});
    for (const char *key : {"interval", "columns", "rows"})
        breaks.push_back({std::string("snapshots.") + key, {},
                          std::string("no '") + key + "'"});
    json::Value wide = at(rep, "snapshots.rows.0.values");
    wide.append(json::Value(0.0));
    breaks.push_back({"snapshots.rows.0.values", wide,
                      "a row's width is not the column count"});
    const int64_t second = at(rep, "snapshots.rows.1.cycle").asInt();
    breaks.push_back({"snapshots.rows.0.cycle", json::Value(second + 1),
                      "snapshot cycles not monotone"});
    expectRunBreaks(kReport, breaks);
}

TEST(DiffCheck, TimelineEvents)
{
    const json::Value &t = runArtifacts().timeline;
    const std::vector<json::Value> &events = at(t, "traceEvents").elements();
    auto first = [&](const char *ph) {
        for (size_t i = 0; i < events.size(); ++i)
            if (events[i].stringAt("ph") == ph)
                return "traceEvents." + std::to_string(i) + ".";
        ADD_FAILURE() << "no '" << ph << "' event";
        return std::string("traceEvents.0.");
    };
    const std::string span = first("X"), counter = first("C");
    const std::string meta = first("M");
    std::vector<Break> breaks = {
        {"traceEvents", json::Value::array(), "no traceEvents"},
        {span + "ph", json::Value("Q"), "unknown ph"},
        {span + "tid", {}, "no 'tid'"},
        {span + "ts", {}, "no 'ts'"},
        {span + "ts", json::Value(-1), "'ts' is not a non-negative integer"},
        {span + "dur", {}, "no 'dur'"},
        {span + "dur", json::Value(-4), "'dur' is not a non-negative integer"},
        {counter + "args.value", {}, "no 'value'"},
    };
    for (const char *key : {"ph", "pid", "name"})
        breaks.push_back({meta + key, {}, std::string("no '") + key + "'"});
    expectRunBreaks(kTimeline, breaks);

    // Without spans, or without the track-name metadata.
    for (const char *ph : {"X", "M"}) {
        json::Value kept = json::Value::array();
        for (const json::Value &ev : events)
            if (ev.stringAt("ph") != ph)
                kept.append(ev);
        const RunArtifacts &r = runArtifacts();
        expectFinding(runSet(r.report, r.profile,
                             edited(t, "traceEvents", kept)),
                      *ph == 'X' ? "no complete spans" : "no metadata events");
    }
}

TEST(DiffCheck, HostAndServeSpansNestOnTheirTracks)
{
    // The serve drain's timeline holds its parked waits as async pairs
    // and checks clean.
    const json::Value &served = serveArtifacts().timeline;
    size_t begins = 0;
    for (const json::Value &ev : at(served, "traceEvents").elements())
        begins += ev.stringAt("ph") == "b";
    EXPECT_GT(begins, 0u) << "no gate waits drawn as async spans";
    EXPECT_TRUE(diff::check({{"timeline.json", served, ""}}).empty());

    // A timeline of one metadata event and the events of @p extra.
    auto timelineOf = [](const std::string &extra) {
        return parsed(R"({"schema_version": )" +
                      std::to_string(version::kJsonSchemaVersion) +
                      R"(, "traceEvents": [{"ph": "M", "pid": 2,
                          "name": "process_name", "args": {"name": "host"}},
                         )" + extra + "]}");
    };
    auto span = [](int pid, int tid, int ts, int dur) {
        return R"({"ph": "X", "pid": )" + std::to_string(pid) +
               R"(, "tid": )" + std::to_string(tid) + R"(, "ts": )" +
               std::to_string(ts) + R"(, "dur": )" + std::to_string(dur) +
               R"(, "name": "s", "cat": "c"})";
    };
    auto async = [](const char *ph, int id, int ts) {
        return std::string(R"({"ph": ")") + ph +
               R"(", "pid": 2, "tid": 1, "ts": )" + std::to_string(ts) +
               R"(, "id": )" + std::to_string(id) +
               R"(, "name": "gate", "cat": "serve"})";
    };
    auto clean = [&](const std::string &events) {
        const std::vector<diff::Finding> f =
            diff::check({{"timeline.json", timelineOf(events), ""}});
        EXPECT_TRUE(f.empty()) << events << "\n" << listed(f);
    };
    auto broken = [&](const std::string &events, const std::string &what) {
        SCOPED_TRACE(events);
        expectFinding({{"timeline.json", timelineOf(events), ""}}, what);
    };
    // Nested, back to back, or on two tracks: clean.
    clean(span(2, 1, 0, 10) + "," + span(2, 1, 2, 8));
    clean(span(2, 1, 0, 10) + "," + span(2, 1, 10, 5));
    clean(span(2, 1, 0, 10) + "," + span(2, 2, 5, 10));
    clean(span(2, 1, 5, 10) + "," + span(2, 1, 5, 3) + "," +
          span(2, 1, 8, 2));
    // Overlapping without nesting on one host or serve track; the
    // modeled plane's tracks are not held to it.
    broken(span(2, 1, 0, 10) + "," + span(2, 1, 5, 10),
           "on its track without nesting");
    broken(span(3, 16, 5, 10) + "," + span(3, 16, 0, 10),
           "on its track without nesting");
    broken(span(2, 1, 0, 20) + "," + span(2, 1, 2, 8) + "," +
               span(2, 1, 6, 6),
           "on its track without nesting");
    clean(span(1, 1, 0, 10) + "," + span(1, 1, 5, 10));
    // An async wait over a span of its track is fine; its pair is not
    // optional.
    clean(span(2, 1, 0, 10) + "," + async("b", 7, 5) + "," +
          async("e", 7, 15));
    broken(span(2, 1, 0, 10) + "," + async("b", 7, 5),
           "begin without end or end without begin");
    broken(span(2, 1, 0, 10) + "," + async("e", 7, 5),
           "begin without end or end without begin");
    broken(span(2, 1, 0, 10) + "," + async("b", 7, 9) + "," +
               async("e", 7, 5),
           "ends before it begins");
    broken(span(2, 1, 0, 10) + "," + async("b", 7, 1) + "," +
               async("b", 7, 2) + "," + async("e", 7, 5),
           "async b repeated");
    broken(span(2, 1, 0, 10) + "," + async("b", 7, 1) + R"(, {"ph": "e",
               "pid": 2, "tid": 1, "ts": 5, "name": "gate"})",
           "no 'id'");
}

TEST(DiffCheck, ModeledSpansEndByTheRunsCycles)
{
    // A modeled span past the sim report's cycle count; a host-clock
    // span as long is not on that clock.
    const RunArtifacts &r = runArtifacts();
    const int64_t cycles = r.report.intAt("cycles");
    const std::vector<json::Value> &events =
        at(r.timeline, "traceEvents").elements();
    size_t modeled = events.size(), host = events.size();
    for (size_t i = 0; i < events.size(); ++i)
        if (events[i].stringAt("ph") == "X")
            (events[i].intAt("pid") == timeline::kPidModeled ? modeled
                                                             : host) = i;
    ASSERT_LT(modeled, events.size());
    const std::string span = "traceEvents." + std::to_string(modeled) + ".";
    const int64_t ts = at(r.timeline, span + "ts").asInt();
    expectRunBreaks(kTimeline, {{span + "dur", json::Value(cycles - ts + 1),
                                 "modeled span ends after the run's cycles"}});
    // Alone, a timeline has no clock to end by.
    const json::Value late = edited(r.timeline, span + "dur",
                                    json::Value(cycles * 2));
    EXPECT_TRUE(diff::check({{"timeline.json", late, ""}}).empty());
    if (host < events.size()) {
        const std::string h = "traceEvents." + std::to_string(host) + ".";
        const json::Value long_host =
            edited(r.timeline, h + "dur", json::Value(cycles * 2));
        EXPECT_TRUE(
            diff::check(runSet(r.report, r.profile, long_host)).empty());
    }
}

TEST(DiffCheck, MetricsSnapshot)
{
    const json::Value &m = serveArtifacts().snapshot;
    const std::vector<json::Value> &metrics = at(m, "metrics").elements();
    auto index = [&](const char *name, bool labeled) {
        for (size_t i = 0; i < metrics.size(); ++i)
            if (metrics[i].stringAt("name") == name &&
                metrics[i].find("labels")->members().empty() != labeled)
                return "metrics." + std::to_string(i) + ".";
        ADD_FAILURE() << "no metric " << name;
        return std::string("metrics.0.");
    };
    const std::string h = index("serve_batch_size", false);
    const std::string c = index(serve_metric::kRequestsCompleted, false);
    const int64_t n = at(m, h + "count").asInt();
    std::vector<Break> breaks = {
        {"snapshot", json::Value(0), "snapshot number is 0"},
        {"metrics", json::Value::array(), "no metrics"},
        {c + "name", {}, "no 'name'"},
        {c + "type", json::Value("summary"), "unknown type 'summary'"},
        {c + "labels", json::Value("matrix"), "'labels' is not an object"},
        {c + "value", {}, "no 'value'"},
        {h + "window", {}, "no 'window'"},
        {h + "window.count", json::Value(n + 1), "window count exceeds"},
        {h + "buckets", {}, "no 'buckets'"},
        {h + "buckets", json::Value::object(), "bucket counts do not sum"},
        {h + "mean", json::Value(at(m, h + "max").asDouble() + 1.0),
         "min <= mean <= max"},
    };
    for (const char *key : {"count", "sum", "min", "max", "mean"})
        breaks.push_back({h + key, {}, std::string("no '") + key + "'"});
    for (const char *key : {"count", "p50", "p95", "p99", "p99.9"})
        breaks.push_back({h + "window",
                          withMember(at(m, h + "window"), key, nullptr),
                          std::string("no '") + key + "'"});
    const std::string edge = at(m, h + "buckets").members().front().first;
    breaks.push_back({h + "buckets." + edge,
                      json::Value(at(m, h + "buckets." + edge).asInt() + 1),
                      "bucket counts do not sum"});
    expectServeBreaks(kSnapshot, breaks);

    // A label set repeated within its family.
    json::Value twice = at(m, "metrics");
    twice.append(at(m, c.substr(0, c.size() - 1)));
    expectServeBreaks(kSnapshot, {{"metrics", twice, "repeats a label set"}});
}

TEST(DiffCheck, PrometheusTextExposesTheSnapshot)
{
    const ServeArtifacts &s = serveArtifacts();
    // Drop every line that holds @p needle.
    auto without = [&](const std::string &needle) {
        std::istringstream in(s.prom);
        std::string out;
        for (std::string line; std::getline(in, line);)
            if (line.find(needle) == std::string::npos)
                out += line + "\n";
        return out;
    };
    const std::string done = serve_metric::kRequestsCompleted;
    const std::string lat = serve_metric::kLatencyUs;
    for (auto [needle, finding] :
         {std::pair{"# TYPE " + done, "no TYPE line for " + done},
          {lat + "_count", "no _count: " + lat},
          {"le=\"+Inf\"", "no +Inf bucket: " + lat}}) {
        SCOPED_TRACE(needle);
        expectFinding(serveSet(s.report, s.snapshot, without(needle),
                               s.timeline),
                      finding);
    }
}

TEST(DiffCheck, ServeReportSloAccounting)
{
    const json::Value &rep = serveArtifacts().report;
    auto plus1 = [&](const std::string &path) {
        return json::Value(at(rep, path).asInt() + 1);
    };
    expectServeBreaks(
        kServeReport,
        {{"completed", json::Value("80"),
          "'completed' is not a non-negative integer"},
         {"slo", {}, "no 'slo'"},
         {"slo.total", {}, "no 'total'"},
         {"slo.per_matrix", {}, "no 'per_matrix'"},
         {"slo.total.bad", plus1("slo.total.bad"), "slo.total"},
         {"slo.total.good", plus1("slo.total.good"),
          "good + bad is 81"},
         {"slo.total.latency_us.p50",
          json::Value(at(rep, "slo.total.latency_us.p99").asDouble() + 1.0),
          "percentiles not monotone"},
         {"slo.per_matrix.0.good", plus1("slo.per_matrix.0.good"),
          "slo.per_matrix: good + bad is 81"},
         {"slo.per_matrix.1.latency_us.p95", json::Value(-1.0),
          "percentiles not monotone"}});
}

TEST(DiffCheck, SnapshotCountsAddUpToTheServeReport)
{
    const ServeArtifacts &s = serveArtifacts();
    const std::vector<json::Value> &metrics =
        at(s.snapshot, "metrics").elements();
    auto path = [&](const char *name, bool labeled, const char *key) {
        for (size_t i = 0; i < metrics.size(); ++i)
            if (metrics[i].stringAt("name") == name &&
                metrics[i].find("labels")->members().empty() != labeled)
                return "metrics." + std::to_string(i) + "." + key;
        ADD_FAILURE() << "no metric " << name;
        return std::string("metrics.0.") + key;
    };
    auto scaled = [&](const std::string &p, double f) {
        return json::Value(at(s.snapshot, p).asDouble() * f);
    };
    const std::string lat = path(serve_metric::kLatencyUs, false, "count");
    const std::string wait = path(serve_metric::kQueueWaitUs, false, "count");
    const std::string done =
        path(serve_metric::kRequestsCompleted, false, "value");
    const std::string one = path(serve_metric::kLatencyUs, true, "count");
    expectServeBreaks(
        kSnapshot,
        {{lat, json::Value(at(s.snapshot, lat).asInt() - 1),
          "the latency histogram count is not completed"},
         {wait, json::Value(at(s.snapshot, wait).asInt() + 1),
          "the queue-wait histogram count is not completed"},
         {done, scaled(done, 0.5),
          std::string(serve_metric::kRequestsCompleted) +
              " is not completed"},
         {one, json::Value(at(s.snapshot, one).asInt() + 1),
          "per-matrix latency counts"},
         {path(serve_metric::kQueueWaitUs, false, "sum"),
          scaled(path(serve_metric::kLatencyUs, false, "sum"), 2.0),
          "queue-wait sum exceeds latency sum"},
         {path(serve_metric::kQueueWaitUs, false, "max"),
          scaled(path(serve_metric::kLatencyUs, false, "max"), 2.0),
          "queue-wait max exceeds latency max"}});
    // A missing serve metric breaks each count it carries.
    json::Value kept = json::Value::array();
    for (const json::Value &m : metrics)
        if (m.stringAt("name") != serve_metric::kQueueWaitUs)
            kept.append(m);
    expectServeBreaks(kSnapshot, {{"metrics", kept,
                                   "the queue-wait histogram count"}});
}

TEST(DiffCheck, UnrecognizedOrAmbiguousSetsAreUnreadable)
{
    const RunArtifacts &r = runArtifacts();
    const ServeArtifacts &s = serveArtifacts();
    expectFinding({{"junk.json", parsed(R"({"foo": 1})"), ""}},
                  "unrecognized artifact", 2);
    // A .prom file is checked against the one snapshot named with it.
    expectFinding({{"m.json.prom", {}, s.prom}}, "0 metrics documents", 2);
    expectFinding({{"a.json", s.snapshot, ""},
                   {"b.json", s.snapshot, ""},
                   {"a.json.prom", {}, s.prom}},
                  "2 metrics documents", 2);
    // A timeline named with two sim reports has no one clock.
    expectFinding({{"a.json", r.report, ""},
                   {"b.json", r.report, ""},
                   {"t.json", r.timeline, ""}},
                  "2 sim documents", 2);
    // Two sim reports alone are two independent checks.
    EXPECT_TRUE(diff::check({{"a.json", r.report, ""},
                             {"b.json", r.report, ""}})
                    .empty());
}

TEST(DiffCheck, ExitCodeRanksUnreadableThenConservation)
{
    using K = diff::Finding::Kind;
    auto code = [](std::vector<K> kinds) {
        std::vector<diff::Finding> f;
        for (K k : kinds)
            f.push_back({k, "x"});
        return diff::exitCode(f);
    };
    EXPECT_EQ(code({}), 0);
    EXPECT_EQ(code({K::Broken}), 1);
    EXPECT_EQ(code({K::Broken, K::Unconserved}), 3);
    EXPECT_EQ(code({K::Unconserved, K::Broken}), 3);
    EXPECT_EQ(code({K::Broken, K::Unreadable, K::Unconserved}), 2);
}

/**
 * Seeded mutations of the emitted documents: byte flips, splices and
 * edited numbers (truncation is JsonRoundTrip's), each parsed and, if
 * it parses, checked in its set.  Every case must end in a verdict --
 * unparseable, or a list of findings -- never in an abort.
 */
TEST(DiffCheck, SeededMutationsEndInAVerdict)
{
    const RunArtifacts &r = runArtifacts();
    const ServeArtifacts &s = serveArtifacts();
    const std::vector<std::vector<diff::Artifact>> sets = {
        runSet(r.report, r.profile, r.timeline),
        serveSet(s.report, s.snapshot, s.prom, s.timeline)};
    const char *const kNumbers[] = {
        "0", "-1", "1.5", "-0.0", "1e300", "-1e300", "9223372036854775807",
        "-9223372036854775808", "18446744073709551616", "4294967297"};
    constexpr int kCases = 2000;
    Rng rng(2024);
    int parsedCases = 0, flagged = 0;
    for (int c = 0; c < kCases; ++c) {
        std::vector<diff::Artifact> set = sets[rng.nextRange(sets.size())];
        diff::Artifact &victim = set[rng.nextRange(set.size())];
        const bool prom = victim.path.ends_with(".prom");
        std::string text = prom ? victim.text : json::dump(victim.doc);
        const size_t pos = rng.nextRange(text.size());
        switch (rng.nextRange(3)) {
          case 0: // flip the bits of one byte
              text[pos] = char(text[pos] ^ (1 + rng.nextRange(255)));
              break;
          case 1: { // splice a span of the text over another place
              const size_t from = rng.nextRange(text.size());
              const size_t len = 1 + rng.nextRange(64);
              text.replace(pos, rng.nextRange(64), text.substr(from, len));
              break;
          }
          default: { // edit the first number at or after pos
              const size_t b = text.find_first_of("-0123456789", pos);
              if (b == std::string::npos)
                  break;
              const size_t e = text.find_first_not_of("-+.eE0123456789", b);
              text.replace(b, e - b, kNumbers[rng.nextRange(10)]);
          }
        }
        if (prom) {
            victim.text = text;
        } else {
            json::Parsed p = json::parse(text);
            if (!p)
                continue; // a verdict: unparseable, exit 2
            victim.doc = std::move(p.value);
        }
        ++parsedCases;
        const std::vector<diff::Finding> findings = diff::check(set);
        const int code = diff::exitCode(findings);
        EXPECT_TRUE(code >= 0 && code <= 3);
        flagged += !findings.empty();
    }
    // The loop reaches the checker, and the checker sees the damage.
    EXPECT_GT(parsedCases, kCases / 4);
    EXPECT_GT(flagged, parsedCases / 4);
}

} // namespace
