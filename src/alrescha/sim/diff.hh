/**
 * @file
 * Differential observability: align two observability artifacts and
 * attribute the delta.
 *
 * The per-run surfaces (stats JSON, cycle-accounting profile, BENCH
 * rows, metrics snapshots) answer "where did the cycles go"; this layer
 * answers the cross-run question -- "this run got slower: which block
 * rows, which cause buckets, which config knob".  It consumes parsed
 * json::Value documents from any emitter in the repo and produces one
 * diff Document with exact integer cycle/byte deltas.
 *
 * Two hard invariants, mirroring the profiler's conservation contract:
 *
 * 1. **Conservation**: when both sides carry profile buckets, the
 *    per-bucket cycle deltas sum *exactly* to the total cycle delta
 *    (the profiler guarantees attributed == total per side; alignment
 *    is by (dp, block_row, cause) key with missing buckets counted as
 *    zero, so no delta can leak).  diff() verifies this and flags the
 *    document `conserved = false` if an emitter ever breaks it.
 * 2. **Self-diff is empty**: diffing a document against itself yields
 *    a Document with zero rows of change, zero totals, and
 *    empty() == true.  Only *changed* values are materialized, so an
 *    empty diff is structurally empty, not a list of zeros.
 *
 * Used by tools/alr_diff (file vs file) and `alr_sim --ab` (two
 * in-process runs on the same matrix).  With a --fail-on rule list it
 * is also the one gate of the committed BENCH_*.json baselines: exact
 * cycles, bytes, energy and stats, plus the contract checks a Bench
 * comparison always applies (see Document::violations).
 *
 * check() is the one checker of the artifacts' schemas and of the
 * invariants among the artifacts of one run (`alr_diff check`): the
 * readers above and the checker share classify(), and the checker
 * takes its labels and schema version from the emitters.
 */

#ifndef ALR_ALRESCHA_SIM_DIFF_HH
#define ALR_ALRESCHA_SIM_DIFF_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace alr::diff {

/** Which emitter produced an artifact (detected from its shape).  The
 *  kinds from Timeline on are checked but never diffed. */
enum class ArtifactKind : uint8_t {
    Profile,  ///< profile::exportJson (alr_sim --profile)
    Sim,      ///< alr_sim --json report document
    Bench,    ///< BENCH_*.json (bench harness baselines)
    Metrics,  ///< metrics::Registry::writeJson snapshot
    Timeline, ///< timeline::exportChromeTrace (checked, never diffed)
    Serve,    ///< alr_serve --json report (checked, never diffed)
    Unknown,
};

const char *toString(ArtifactKind k);

/** Shape-based detection; Unknown when the document matches nothing. */
ArtifactKind classify(const json::Value &doc);

/** One profile bucket aligned across the two runs (absent side = 0). */
struct BucketDelta
{
    std::string dp;        ///< data-path label ("gemv", "d_symgs", ...)
    int64_t blockRow = -1; ///< -1: run-level charge
    std::string cause;     ///< cause label ("stream", "cache_miss", ...)
    int64_t oldCycles = 0, newCycles = 0;
    int64_t oldBytes = 0, newBytes = 0;

    int64_t cycleDelta() const { return newCycles - oldCycles; }
    int64_t byteDelta() const { return newBytes - oldBytes; }
};

/** A changed numeric leaf (stat, utilization field, energy component,
 *  metric value), addressed by dotted path. */
struct ValueDelta
{
    std::string path;
    double oldValue = 0.0, newValue = 0.0;

    double delta() const { return newValue - oldValue; }
};

/** A changed provenance / identity field (version block, kernel,
 *  omega, schema). */
struct ProvenanceDelta
{
    std::string key;
    std::string oldText, newText;
};

/**
 * One aligned unit of comparison: the single run of a Profile/Sim
 * document, or one named dataset row of a Bench document.  Only
 * *changed* buckets/values are stored.
 */
struct RowDiff
{
    std::string name;
    bool onlyOld = false; ///< present in the old artifact only
    bool onlyNew = false; ///< present in the new artifact only

    int64_t oldCycles = 0, newCycles = 0;
    int64_t oldBytes = 0, newBytes = 0;
    double oldEnergy = 0.0, newEnergy = 0.0; ///< joules (0 if absent)

    std::vector<BucketDelta> buckets; ///< changed profile buckets
    std::vector<ValueDelta> stats;    ///< changed stat/metric leaves
    std::vector<ValueDelta> energy;   ///< changed energy components
    /** Changed leaves that are reported but never gated: values
     *  derived from the gated ones (a Sim report's seconds and
     *  utilization, a Bench row's ratios) or from the host clock. */
    std::vector<ValueDelta> ungated;

    int64_t cycleDelta() const { return newCycles - oldCycles; }
    int64_t byteDelta() const { return newBytes - oldBytes; }
    double energyDelta() const { return newEnergy - oldEnergy; }

    bool changed() const
    {
        return onlyOld || onlyNew || cycleDelta() != 0 ||
               byteDelta() != 0 || energyDelta() != 0.0 ||
               !buckets.empty() || !stats.empty() || !energy.empty() ||
               !ungated.empty();
    }
};

/** The complete attributed diff of two artifacts. */
struct Document
{
    ArtifactKind kind = ArtifactKind::Unknown;
    int64_t oldSchema = 0, newSchema = 0; ///< 0 = pre-schema_version

    std::vector<ProvenanceDelta> provenance;
    std::vector<RowDiff> rows; ///< only rows with changes

    int64_t totalCycleDelta = 0;
    int64_t totalByteDelta = 0;
    double totalEnergyDelta = 0.0;

    /** Bucket cycle deltas summed exactly to the total cycle delta on
     *  every row that carried buckets (true when no buckets). */
    bool conserved = true;

    /**
     * Bench contract failures, which trip every --fail-on rule: a
     * document without rows, a top-level key of the old document
     * missing from the new one, and per row a changed suite, a stats
     * or energy leaf that is a number on one side only, or a wall_ms
     * that is non-positive or outside kWallTolerance of the old.  They
     * are not differences, so empty() ignores them.
     */
    std::vector<std::string> violations;

    /** True iff nothing changed (provenance differences included). */
    bool empty() const
    {
        return rows.empty() && provenance.empty() &&
               totalCycleDelta == 0 && totalByteDelta == 0 &&
               totalEnergyDelta == 0.0;
    }
};

/**
 * Align @p oldDoc and @p newDoc and compute the attributed delta.
 * Fails (false + @p err) when the two documents are different artifact
 * kinds, when either is unrecognized, or when their schema_version
 * fields disagree (a 0/legacy artifact never diffs against a versioned
 * one).
 */
bool diff(const json::Value &oldDoc, const json::Value &newDoc,
          Document *out, std::string *err);

/** Ranked top-movers / waterfall report for humans. */
void writeText(std::ostream &os, const Document &d, size_t topK = 20);

/** Machine-readable diff document (carries its own schema_version). */
void writeJson(std::ostream &os, const Document &d);

/**
 * Differential flamegraph as two folded-stack streams: regressions
 * (cycle delta > 0) to @p pos, improvements to @p neg (magnitudes, so
 * both render with stock flamegraph.pl).  Stacks are
 * "row;dp;row_N;cause delta".
 */
void writeFolded(std::ostream &pos, std::ostream &neg,
                 const Document &d);

/** A Bench row's wall_ms may move by this factor either way: host
 *  wall time is checked for sanity, never for speed. */
constexpr double kWallTolerance = 25.0;

/**
 * A '--fail-on' threshold: METRIC '>' NUMBER ['%'].  Each rule applies
 * to a row's total and to its parts: cycles and bytes to the profile
 * buckets too, energy to every energy component, stats to every
 * RowDiff::stats leaf -- a Sim report's stat tree, a Bench row's
 * "stats" object, a profile's attributed cycles, run count and
 * critical path, every metric of a snapshot.  RowDiff::ungated never
 * trips a rule.  Relative rules compare |delta| against pct of the old
 * value of the same total or part; absolute rules against the raw
 * |delta|.  Rows present on only one side and Document::violations
 * always trip the rule.
 */
struct FailRule
{
    enum class Metric : uint8_t { Cycles, Bytes, Energy, Stats };
    Metric metric = Metric::Cycles;
    double threshold = 0.0;
    bool relative = false;
};

/** Parse "cycles>0.1%", "bytes>1024", "energy>0", "stats>0" ... */
bool parseFailRule(const std::string &spec, FailRule *out,
                   std::string *err);

/** Parse a comma-separated rule list, "cycles>0,bytes>0,stats>0";
 *  an empty item is an error. */
bool parseFailRules(const std::string &spec, std::vector<FailRule> *out,
                    std::string *err);

/** True when @p d exceeds the rule (CI gate should fail). */
bool exceeds(const Document &d, const FailRule &rule);

/** Apply a rule list: empty when @p d passes every rule, else why it
 *  fails (the first violation, or the first rule exceeded). */
std::string gate(const Document &d, const std::vector<FailRule> &rules);

/** Human-readable restatement of the rule for gate messages. */
std::string describe(const FailRule &rule);

/** One file named to check(): its path, its parsed document, and its
 *  text, which is what a ".prom" file (a metrics snapshot's Prometheus
 *  exposition) is checked by. */
struct Artifact
{
    std::string path;
    json::Value doc;
    std::string text;
};

/** A broken invariant, classed by the exit code alr_diff gives it: a
 *  schema or cross-document invariant, an unrecognized document or an
 *  ambiguous set of them, or a profile whose cycles or bytes are not
 *  conserved. */
struct Finding
{
    enum class Kind : uint8_t { Broken = 1, Unreadable = 2, Unconserved = 3 };
    Kind kind = Kind::Broken;
    std::string text; ///< "<path>: <where>: <what>"
};

/**
 * Check each artifact's schema and invariants -- every document's
 * schema_version, then per kind: a profile's labels, bucket order and
 * exact conservation, a sim report's stat tree, utilization and
 * snapshots, a timeline's events, a snapshot's metrics, a serve
 * report's SLO accounting -- and the invariants among the artifacts
 * named together, each paired with the one partner of its kind: a
 * timeline's modeled spans end by the sim report's cycles, a profile
 * (standalone or embedded) matches its sim report's kernel and cycles,
 * a .prom file exposes its snapshot's families, and a snapshot's
 * histogram and completion counts add up to the serve report's
 * completed requests.  Two partners of one kind, or a .prom file with
 * no snapshot, is Unreadable.  Empty when everything holds.
 */
std::vector<Finding> check(const std::vector<Artifact> &artifacts);

/** alr_diff check's exit code: 0 without findings, else 2 before 3
 *  before 1 (Finding::Kind). */
int exitCode(const std::vector<Finding> &findings);

} // namespace alr::diff

#endif // ALR_ALRESCHA_SIM_DIFF_HH
