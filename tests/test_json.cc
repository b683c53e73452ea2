/**
 * @file
 * Strict JSON reader tests: the round-trip contract
 * (parse(dump(x)) == x) exercised on hand-built values and on every
 * document the repo actually emits (sim report, cycle-accounting
 * profile, metrics snapshot), plus the rejection matrix -- truncation
 * at every byte offset, bad escapes, duplicate keys, and the number
 * grammar edge cases RFC 8259 is strict about.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "alrescha/accelerator.hh"
#include "alrescha/report.hh"
#include "alrescha/sim/profile.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/timeline.hh"
#include "common/version.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

json::Value
parseOk(const std::string &text)
{
    json::Parsed p = json::parse(text);
    EXPECT_TRUE(p.ok) << text << "\n  error: " << p.error << " at offset "
                      << p.offset;
    return p.value;
}

void
expectReject(const std::string &text, const char *why)
{
    json::Parsed p = json::parse(text);
    EXPECT_FALSE(p.ok) << why << ": accepted " << text;
    if (!p.ok) {
        EXPECT_FALSE(p.error.empty()) << why;
        EXPECT_LE(p.offset, text.size()) << why;
    }
}

/** parse -> dump -> parse must reproduce the value exactly. */
void
expectRoundTrip(const std::string &text)
{
    json::Value v = parseOk(text);
    std::string dumped = json::dump(v);
    json::Value again = parseOk(dumped);
    EXPECT_EQ(v, again) << "round trip drifted for:\n" << text;
    // dump is a fixed point: dumping the reparsed value is identical.
    EXPECT_EQ(dumped, json::dump(again));
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_EQ(parseOk("42").asInt(), 42);
    EXPECT_EQ(parseOk("-7").asInt(), -7);
    EXPECT_EQ(parseOk("0").asInt(), 0);
    EXPECT_DOUBLE_EQ(parseOk("2.5").asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(parseOk("1e3").asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(parseOk("-1.25e-2").asDouble(), -0.0125);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseOk("  \"pad\"  ").asString(), "pad");
}

TEST(JsonParse, Int64Boundaries)
{
    json::Value v = parseOk("9223372036854775807");
    EXPECT_TRUE(v.isInt());
    EXPECT_EQ(v.asInt(), std::numeric_limits<int64_t>::max());

    v = parseOk("-9223372036854775808");
    EXPECT_TRUE(v.isInt());
    EXPECT_EQ(v.asInt(), std::numeric_limits<int64_t>::min());

    // One past the boundary no longer fits int64: parsed as a double,
    // not rejected, matching what a python emitter can produce.
    v = parseOk("9223372036854775808");
    EXPECT_EQ(v.kind(), json::Kind::Double);
    EXPECT_DOUBLE_EQ(v.asDouble(), 9223372036854775808.0);
}

TEST(JsonParse, NumberEdgeCases)
{
    EXPECT_EQ(parseOk("-0").asInt(), 0);
    EXPECT_DOUBLE_EQ(parseOk("-0.0").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(parseOk("1e308").asDouble(), 1e308);
    EXPECT_DOUBLE_EQ(parseOk("5e-324").asDouble(), 5e-324);

    expectReject("1e999", "overflow to infinity");
    expectReject("-1e999", "overflow to -infinity");
    expectReject("01", "leading zero");
    expectReject("-01", "leading zero after sign");
    expectReject("1.", "bare fraction point");
    expectReject(".5", "missing integer part");
    expectReject("+1", "leading plus");
    expectReject("1e", "empty exponent");
    expectReject("1e+", "empty signed exponent");
    expectReject("NaN", "non-standard NaN");
    expectReject("Infinity", "non-standard Infinity");
    expectReject("0x10", "hex literal");
}

TEST(JsonParse, Strings)
{
    EXPECT_EQ(parseOk(R"("a\"b\\c\/d")").asString(), "a\"b\\c/d");
    EXPECT_EQ(parseOk(R"("\b\f\n\r\t")").asString(), "\b\f\n\r\t");
    EXPECT_EQ(parseOk(R"("A")").asString(), "A");
    EXPECT_EQ(parseOk(R"("é")").asString(), "\xc3\xa9");
    EXPECT_EQ(parseOk(R"("€")").asString(), "\xe2\x82\xac");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parseOk(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");

    expectReject(R"("\x41")", "unknown escape");
    expectReject(R"("\u12")", "short hex escape");
    expectReject(R"("\u12g4")", "non-hex digit in escape");
    expectReject(R"("\ud800")", "lone high surrogate");
    expectReject(R"("\ud800A")", "high surrogate + non-low");
    expectReject(R"("\udc00")", "lone low surrogate");
    expectReject("\"a\nb\"", "raw newline in string");
    expectReject(std::string("\"a\tb\""), "raw tab in string");
    expectReject("\"unterminated", "unterminated string");
}

TEST(JsonParse, Structure)
{
    json::Value v = parseOk(R"({"a": 1, "b": [true, null], "c": {}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "a"); // insertion order preserved
    EXPECT_EQ(v.members()[1].first, "b");
    EXPECT_EQ(v.intAt("a"), 1);
    EXPECT_EQ(v.intAt("missing", -5), -5);
    ASSERT_NE(v.find("b"), nullptr);
    EXPECT_EQ(v.find("b")->elements().size(), 2u);
    EXPECT_EQ(v.find("nope"), nullptr);

    expectReject(R"({"a": 1, "a": 2})", "duplicate key");
    expectReject(R"({"a": 1,})", "trailing comma in object");
    expectReject("[1, 2,]", "trailing comma in array");
    expectReject("[1 2]", "missing comma");
    expectReject(R"({"a" 1})", "missing colon");
    expectReject("{1: 2}", "non-string key");
    expectReject("[1] [2]", "trailing content");
    expectReject("", "empty input");
    expectReject("   ", "whitespace-only input");
}

TEST(JsonParse, DepthLimit)
{
    std::string deep(300, '[');
    deep += std::string(300, ']');
    expectReject(deep, "past depth limit");

    std::string ok(100, '[');
    ok += "1" + std::string(100, ']');
    EXPECT_TRUE(json::parse(ok).ok);
}

TEST(JsonParse, ErrorOffsets)
{
    json::Parsed p = json::parse("[1, x]");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.offset, 4u);

    p = json::parse(R"({"k": 1, "k": 2})");
    ASSERT_FALSE(p.ok);
    // The duplicate is detected at (or after) the second key.
    EXPECT_GE(p.offset, 9u);
}

TEST(JsonRoundTrip, HandBuilt)
{
    expectRoundTrip(R"({"i": 7, "d": 0.1, "neg": -3.25e-7,
                        "big": 9007199254740993,
                        "s": "q\"\\€", "a": [1, 2.5, "x", null],
                        "o": {"nested": [{"deep": true}]}})");
    expectRoundTrip("[]");
    expectRoundTrip("{}");
    expectRoundTrip("[0.30000000000000004]");
    expectRoundTrip("[1e308, 5e-324, -0.0]");
}

TEST(JsonRoundTrip, IntegralDoubleStaysDouble)
{
    // 2.0 must dump as "2.0", not "2" -- otherwise the round trip
    // silently changes Kind::Double into Kind::Int.
    json::Value v = parseOk("[2.0]");
    ASSERT_EQ(v.elements()[0].kind(), json::Kind::Double);
    std::string dumped = json::dump(v);
    EXPECT_NE(dumped.find("2.0"), std::string::npos) << dumped;
    json::Value again = parseOk(dumped);
    EXPECT_EQ(again.elements()[0].kind(), json::Kind::Double);
    EXPECT_EQ(v, again);
}

TEST(JsonRoundTrip, CrossKindNumericEquality)
{
    // An Int and a Double holding the same value compare equal, so
    // artifacts written by different emitters still self-diff empty.
    EXPECT_EQ(parseOk("2"), parseOk("2.0"));
    EXPECT_NE(parseOk("2"), parseOk("2.5"));
}

TEST(JsonRoundTrip, TruncationAtEveryOffsetRejected)
{
    const std::string doc =
        R"({"schema_version": 1, "cycles": 3484, "buckets":)"
        R"( [{"dp": "GEMV", "cycles": 10}], "note": "a€b"})";
    ASSERT_TRUE(json::parse(doc).ok);
    // Every strict prefix of an object document is incomplete: the
    // parser must reject all of them, never crash, never accept.
    for (size_t n = 0; n < doc.size(); ++n) {
        json::Parsed p = json::parse(doc.substr(0, n));
        EXPECT_FALSE(p.ok) << "accepted " << n << "-byte prefix";
    }
}

TEST(JsonRoundTrip, SimReportDocument)
{
    CsrMatrix a = gen::stencil2d(16, 16);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(DenseVector(a.cols(), 1.0));

    SimReportOptions opt;
    opt.utilization = true;
    opt.stats = true;
    std::ostringstream os;
    writeSimReportJson(os, acc, opt);

    json::Value doc = parseOk(os.str());
    EXPECT_EQ(doc.intAt("schema_version"), version::kJsonSchemaVersion);
    EXPECT_GT(doc.intAt("cycles"), 0);
    EXPECT_NE(doc.find("energy_breakdown"), nullptr);
    expectRoundTrip(os.str());
}

TEST(JsonRoundTrip, ProfileDocument)
{
    profile::reset();
    profile::setEnabled(true);
    CsrMatrix a = gen::stencil2d(12, 12);
    Accelerator acc;
    acc.loadSpmvOnly(a);
    acc.spmv(DenseVector(a.cols(), 1.0));

    profile::ExportMeta meta;
    meta.kernel = "spmv";
    meta.omega = acc.params().omega;
    meta.totalCycles = acc.engine().totalCycles();
    std::ostringstream os;
    profile::exportJson(os, meta);
    profile::setEnabled(false);
    profile::reset();

    json::Value doc = parseOk(os.str());
    EXPECT_EQ(doc.intAt("schema_version"), version::kJsonSchemaVersion);
    EXPECT_EQ(doc.intAt("total_cycles"), doc.intAt("attributed_cycles"));
    expectRoundTrip(os.str());
}

TEST(JsonRoundTrip, MetricsDocument)
{
    metrics::Registry reg;
    reg.counter("test_requests_total", "requests").add(3.0);
    reg.gauge("test_depth", "queue depth").set(2.5);
    metrics::Histogram &h = reg.histogram("test_latency_us", "latency");
    h.observe(10.0);
    h.observe(250.0);

    std::ostringstream os;
    reg.writeJson(os);

    json::Value doc = parseOk(os.str());
    EXPECT_EQ(doc.intAt("schema_version"), version::kJsonSchemaVersion);
    ASSERT_NE(doc.find("metrics"), nullptr);
    EXPECT_FALSE(doc.find("metrics")->elements().empty());
    expectRoundTrip(os.str());
}

TEST(JsonRoundTrip, NonFiniteDumpsAsNull)
{
    // JSON cannot spell NaN or infinity; the writer emits null, which
    // parses back instead of failing as "invalid literal".
    for (double d : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
        json::Value arr = json::Value::array();
        arr.append(json::Value(d));
        json::Parsed p = json::parse(json::dump(arr));
        ASSERT_TRUE(p.ok) << json::dump(arr) << ": " << p.error;
        EXPECT_TRUE(p.value.elements()[0].isNull());
    }
}

TEST(JsonRoundTrip, EmittedStringsReadBackUnchanged)
{
    // A quote, a backslash, a newline, a raw control byte and UTF-8.
    const std::string tricky = "q\"b\\s\nl\x01" "c \xc3\xa9\xe2\x82\xac";

    stats::StatGroup group("g");
    stats::Scalar scalar;
    group.registerScalar("x", &scalar, tricky);
    std::ostringstream statsOs;
    json::Writer w(statsOs);
    group.dumpJson(w);
    json::Value statsDoc = parseOk(statsOs.str());
    const json::Value *x = statsDoc.find("stats")->find("x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->stringAt("desc"), tricky);

    metrics::Registry reg;
    reg.counter("c", "help", {{"k", tricky}}).add(1.0);
    std::ostringstream metricsOs;
    reg.writeJson(metricsOs);
    json::Value metricsDoc = parseOk(metricsOs.str());
    const json::Value &metric = metricsDoc.find("metrics")->elements()[0];
    EXPECT_EQ(metric.find("labels")->stringAt("k"), tricky);

    timeline::setTrackName(timeline::kPidServe, 999, tricky);
    std::ostringstream traceOs;
    timeline::exportChromeTrace(traceOs);
    json::Value traceDoc = parseOk(traceOs.str());
    bool found = false;
    for (const json::Value &ev : traceDoc.find("traceEvents")->elements())
        found = found || (ev.intAt("tid") == 999 &&
                          ev.find("args")->stringAt("name") == tricky);
    EXPECT_TRUE(found) << "track name did not read back unchanged";
}

TEST(JsonRoundTrip, SimReportNumbersAreExact)
{
    CsrMatrix a = gen::stencil3d(10, 10, 10);
    Accelerator acc;
    acc.loadPde(a);
    DenseVector b(a.rows(), 1.0), x(a.rows(), 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);

    SimReportOptions opt;
    opt.utilization = true;
    std::ostringstream os;
    writeSimReportJson(os, acc, opt);
    json::Value doc = parseOk(os.str());

    // Every field reads back bit-equal: no emitter rounds.
    UtilizationReport u = acc.utilization();
    const json::Value &util = *doc.find("utilization");
    EXPECT_EQ(util.intAt("cycles"), int64_t(u.cycles));
    const std::pair<const char *, double> utilFields[] = {
        {"alu_occupancy", u.aluOccupancy},
        {"tree_occupancy", u.treeOccupancy},
        {"bandwidth_utilization", u.bandwidthUtilization},
        {"cache_hit_rate", u.cacheHitRate},
        {"cache_time_fraction", u.cacheTimeFraction},
        {"sequential_op_fraction", u.sequentialOpFraction},
        {"sequential_cycle_fraction", u.sequentialCycleFraction},
        {"reconfig_hidden_frac", u.reconfigHiddenFraction},
        {"flops", u.flops},
        {"dram_bytes", u.dramBytes},
        {"arithmetic_intensity", u.arithmeticIntensity},
        {"achieved_gflops", u.achievedGflops},
        {"peak_gflops", u.peakGflops},
        {"attainable_gflops", u.attainableGflops},
    };
    for (const auto &[name, value] : utilFields)
        EXPECT_EQ(util.numberAt(name, -1.0), value) << name;

    AccelReport r = acc.report();
    const json::Value &energy = *doc.find("energy_breakdown");
    const std::pair<const char *, double> energyFields[] = {
        {"dram", r.energy.dram},
        {"sram", r.energy.sram},
        {"compute", r.energy.compute},
        {"reconfig", r.energy.reconfig},
        {"static", r.energy.staticEnergy},
    };
    for (const auto &[name, value] : energyFields)
        EXPECT_EQ(energy.numberAt(name, -1.0), value) << name;
    EXPECT_EQ(doc.numberAt("seconds"), r.seconds);
    EXPECT_EQ(doc.numberAt("energy_joules"), r.energyJoules);
}

TEST(JsonValue, BuilderApi)
{
    json::Value obj = json::Value::object();
    obj.set("n", json::Value(int64_t{5}));
    obj.set("name", json::Value(std::string("x")));
    json::Value arr = json::Value::array();
    arr.append(json::Value(1.5));
    arr.append(json::Value(true));
    obj.set("list", std::move(arr));

    std::string dumped = json::dump(obj);
    json::Value again = parseOk(dumped);
    EXPECT_EQ(obj, again);
    EXPECT_EQ(again.intAt("n"), 5);
    EXPECT_EQ(again.stringAt("name"), "x");
    EXPECT_DOUBLE_EQ(again.numberAt("n"), 5.0);
}

TEST(JsonValue, ImplicitConversionsKeepKind)
{
    // A bool stays a Bool, not the double 1.0; a pointer converts to
    // nothing; an unsigned value past INT64_MAX keeps its magnitude, as
    // the parser reads back the literal the Writer writes for it.
    static_assert(!std::is_convertible_v<int *, json::Value>);
    json::Value obj = json::Value::object();
    obj.set("flag", true).set("n", 7u).set("big", UINT64_MAX);
    EXPECT_TRUE(obj.find("flag")->isBool());
    EXPECT_TRUE(obj.find("n")->isInt());
    EXPECT_EQ(parseOk(json::dump(obj)), obj);

    std::ostringstream os;
    json::Writer(os).beginArray(true).value(true).value(UINT64_MAX).end();
    EXPECT_EQ(os.str(), "[true, 18446744073709551615]");
    EXPECT_EQ(parseOk(os.str()).elements()[1], *obj.find("big"));
}

TEST(JsonValue, AsIntSaturatesOutOfRangeDoubles)
{
    // intAt() reads numbers of untrusted artifacts: a double past
    // int64's range (or NaN) saturates instead of an undefined cast.
    const json::Value doc = parseOk(
        R"({"big": 1e300, "small": -1e300, "edge": 9223372036854775808,)"
        R"( "frac": -2.75})");
    EXPECT_EQ(doc.intAt("big"), INT64_MAX);
    EXPECT_EQ(doc.intAt("small"), INT64_MIN);
    EXPECT_EQ(doc.intAt("edge"), INT64_MAX);
    EXPECT_EQ(doc.intAt("frac"), -2);
    EXPECT_EQ(json::Value(std::numeric_limits<double>::quiet_NaN()).asInt(),
              INT64_MIN);
}

} // namespace
