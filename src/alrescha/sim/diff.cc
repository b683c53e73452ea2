#include "alrescha/sim/diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "alrescha/sim/profile.hh"
#include "common/metrics.hh"
#include "common/timeline.hh"
#include "common/version.hh"

namespace alr::diff {

namespace {

/**
 * Flatten every numeric leaf of @p v (nothing when null, i.e. absent)
 * into @p out as dotted-path -> value.  Strings/bools/nulls are
 * skipped (they diff as provenance or not at all); array elements path
 * as ".N" (emitters order them deterministically).
 */
void
walkNumeric(const std::string &prefix, const json::Value *v,
            std::map<std::string, double> &out)
{
    if (!v)
        return;
    if (v->isNumber()) {
        out[prefix] = v->asDouble();
        return;
    }
    if (v->isObject()) {
        for (const auto &[k, m] : v->members())
            walkNumeric(prefix.empty() ? k : prefix + "." + k, &m, out);
        return;
    }
    if (v->isArray()) {
        for (size_t i = 0; i < v->elements().size(); ++i)
            walkNumeric(prefix + "." + std::to_string(i),
                        &v->elements()[i], out);
    }
}

/**
 * Flatten a stats dump tree ({group, stats: {name: {value, ...}},
 * children: [...]}) using group names (not array indexes) as the path,
 * so a diff row reads "engine.fcu.alu_ops" rather than "children.2...".
 * The "value" member maps to the stat's own path; distribution moments
 * keep their member suffix.
 */
void
walkStatsTree(const std::string &prefix, const json::Value *tree,
              std::map<std::string, double> &out)
{
    if (!tree || !tree->isObject())
        return;
    const json::Value &v = *tree;
    std::string group = v.stringAt("group");
    std::string base =
        prefix.empty() ? group
                       : (group.empty() ? prefix : prefix + "." + group);
    if (const json::Value *stats = v.find("stats"); stats && stats->isObject()) {
        for (const auto &[name, stat] : stats->members()) {
            if (!stat.isObject())
                continue;
            for (const auto &[k, m] : stat.members()) {
                if (!m.isNumber())
                    continue;
                std::string path = base + "." + name;
                if (k != "value")
                    path += "." + k;
                out[path] = m.asDouble();
            }
        }
    }
    if (const json::Value *kids = v.find("children"); kids && kids->isArray())
        for (const json::Value &child : kids->elements())
            walkStatsTree(base, &child, out);
}

/** Emit ValueDeltas for every path whose value changed; absent side
 *  counts as 0. */
void
diffMaps(const std::map<std::string, double> &o,
         const std::map<std::string, double> &n,
         std::vector<ValueDelta> *out)
{
    for (const auto &[path, ov] : o) {
        auto it = n.find(path);
        double nv = it == n.end() ? 0.0 : it->second;
        if (ov != nv)
            out->push_back({path, ov, nv});
    }
    for (const auto &[path, nv] : n)
        if (!o.count(path) && nv != 0.0)
            out->push_back({path, 0.0, nv});
}

/** Key for aligning profile buckets across runs. */
struct BucketKey
{
    std::string dp;
    int64_t blockRow;
    std::string cause;

    bool operator<(const BucketKey &o) const
    {
        if (dp != o.dp)
            return dp < o.dp;
        if (blockRow != o.blockRow)
            return blockRow < o.blockRow;
        return cause < o.cause;
    }
};

struct BucketVal
{
    int64_t cycles = 0, bytes = 0;
};

void
collectBuckets(const json::Value &profileDoc,
               std::map<BucketKey, BucketVal> &out)
{
    const json::Value *arr = profileDoc.find("buckets");
    if (!arr || !arr->isArray())
        return;
    for (const json::Value &b : arr->elements()) {
        BucketKey k{b.stringAt("dp"), b.intAt("block_row", -1),
                    b.stringAt("cause")};
        BucketVal &v = out[k];
        v.cycles += b.intAt("cycles");
        v.bytes += b.intAt("bytes");
    }
}

/**
 * Align two profile documents' buckets into @p row.  Returns true when
 * the bucket cycle deltas (over the full aligned key set, unchanged
 * buckets contributing zero) sum exactly to totalNew - totalOld -- the
 * cross-run conservation invariant.
 */
bool
diffBuckets(const json::Value &oldProf, const json::Value &newProf,
            RowDiff *row)
{
    std::map<BucketKey, BucketVal> o, n;
    collectBuckets(oldProf, o);
    collectBuckets(newProf, n);

    int64_t sumDelta = 0;
    for (const auto &[k, ov] : o) {
        auto it = n.find(k);
        BucketVal nv = it == n.end() ? BucketVal{} : it->second;
        sumDelta += nv.cycles - ov.cycles;
        if (ov.cycles != nv.cycles || ov.bytes != nv.bytes)
            row->buckets.push_back({k.dp, k.blockRow, k.cause, ov.cycles,
                                    nv.cycles, ov.bytes, nv.bytes});
    }
    for (const auto &[k, nv] : n) {
        if (o.count(k))
            continue;
        sumDelta += nv.cycles;
        if (nv.cycles != 0 || nv.bytes != 0)
            row->buckets.push_back(
                {k.dp, k.blockRow, k.cause, 0, nv.cycles, 0, nv.bytes});
    }
    int64_t totalDelta = newProf.intAt("total_cycles") -
                         oldProf.intAt("total_cycles");
    return sumDelta == totalDelta;
}

/** Compare the string members of two "version" blocks (and the kernel
 *  / omega identity fields) as provenance deltas. */
void
diffProvenance(const json::Value &o, const json::Value &n, Document *d)
{
    auto field = [&](const char *key) {
        const json::Value *ov = o.find(key), *nv = n.find(key);
        std::string os = ov ? (ov->isString() ? ov->asString()
                                              : json::dump(*ov))
                            : std::string();
        std::string ns = nv ? (nv->isString() ? nv->asString()
                                              : json::dump(*nv))
                            : std::string();
        if (os != ns)
            d->provenance.push_back({key, os, ns});
    };
    const json::Value *ov = o.find("version");
    const json::Value *nv = n.find("version");
    if (ov || nv) {
        json::Value empty = json::Value::object();
        const json::Value &a = ov ? *ov : empty;
        const json::Value &b = nv ? *nv : empty;
        std::map<std::string, const json::Value *> keys;
        for (const auto &[k, m] : a.members())
            keys.emplace(k, nullptr);
        for (const auto &[k, m] : b.members())
            keys.emplace(k, nullptr);
        for (const auto &[k, unused] : keys) {
            const json::Value *av = a.find(k), *bv = b.find(k);
            std::string as = av && av->isString() ? av->asString() : "";
            std::string bs = bv && bv->isString() ? bv->asString() : "";
            if (as != bs)
                d->provenance.push_back({"version." + k, as, bs});
        }
    }
    field("kernel");
    field("bench");
    if (o.intAt("omega", -1) != n.intAt("omega", -1))
        d->provenance.push_back(
            {"omega", std::to_string(o.intAt("omega", -1)),
             std::to_string(n.intAt("omega", -1))});
}

void
diffProfileDocs(const json::Value &o, const json::Value &n, Document *d)
{
    RowDiff row;
    row.name = n.stringAt("kernel", o.stringAt("kernel", "run"));
    row.oldCycles = o.intAt("total_cycles");
    row.newCycles = n.intAt("total_cycles");
    row.oldBytes = o.intAt("attributed_bytes");
    row.newBytes = n.intAt("attributed_bytes");
    if (!diffBuckets(o, n, &row))
        d->conserved = false;

    std::map<std::string, double> om, nm;
    for (const char *k : {"attributed_cycles", "runs", "critical_path"}) {
        walkNumeric(k, o.find(k), om);
        walkNumeric(k, n.find(k), nm);
    }
    diffMaps(om, nm, &row.stats);

    if (row.changed())
        d->rows.push_back(std::move(row));
}

void
diffSimDocs(const json::Value &o, const json::Value &n, Document *d)
{
    RowDiff row;
    row.name = n.stringAt("kernel", o.stringAt("kernel", "run"));
    row.oldCycles = o.intAt("cycles");
    row.newCycles = n.intAt("cycles");
    row.oldBytes = int64_t(o.numberAt("dram_bytes"));
    row.newBytes = int64_t(n.numberAt("dram_bytes"));
    row.oldEnergy = o.numberAt("energy_joules");
    row.newEnergy = n.numberAt("energy_joules");

    // Energy components: exact alignment of the breakdown sub-object.
    {
        std::map<std::string, double> om, nm;
        walkNumeric("", o.find("energy_breakdown"), om);
        walkNumeric("", n.find("energy_breakdown"), nm);
        diffMaps(om, nm, &row.energy);
    }

    // The full stat tree, and the report fields derived from it.
    {
        std::map<std::string, double> om, nm;
        walkStatsTree("", o.find("stats"), om);
        walkStatsTree("", n.find("stats"), nm);
        diffMaps(om, nm, &row.stats);
    }
    {
        std::map<std::string, double> om, nm;
        for (const char *k :
             {"seconds", "bandwidth_utilization", "sequential_op_fraction",
              "reconfigurations", "utilization"}) {
            walkNumeric(k, o.find(k), om);
            walkNumeric(k, n.find(k), nm);
        }
        diffMaps(om, nm, &row.ungated);
    }

    // Embedded profile: bucket-level attribution + conservation
    // against the sim document's own cycle delta (report cycles and
    // profile total_cycles are the same engine counter).
    const json::Value *op = o.find("profile");
    const json::Value *np = n.find("profile");
    if (op && np && !diffBuckets(*op, *np, &row))
        d->conserved = false;

    if (row.changed())
        d->rows.push_back(std::move(row));
}

bool
diffBenchDocs(const json::Value &o, const json::Value &n, Document *d,
              std::string *err)
{
    // Rows align by name, so a repeated name makes a document
    // ambiguous: refuse it rather than silently diff one copy.
    auto rowsOf = [&](const json::Value &doc, const char *side,
                      std::map<std::string, const json::Value *> &out) {
        if (const json::Value *a = doc.find("datasets");
            a && a->isArray())
            for (const json::Value &r : a->elements())
                if (!out.emplace(r.stringAt("name"), &r).second) {
                    *err = std::string(side) + " document repeats row \"" +
                           r.stringAt("name") + "\"";
                    return false;
                }
        if (out.empty())
            d->violations.push_back(std::string("the ") + side +
                                    " document has no dataset rows");
        return true;
    };
    std::map<std::string, const json::Value *> om, nm;
    if (!rowsOf(o, "old", om) || !rowsOf(n, "new", nm))
        return false;

    for (const auto &[k, m] : o.members())
        if (!n.find(k))
            d->violations.push_back("top-level key \"" + k +
                                    "\" is missing from the new document");

    // One aligned row.  A row on both sides must also keep its suite,
    // each stats/energy leaf must be a number on both sides or on
    // neither (the value diff reads an absent leaf as 0 and skips a
    // null one), and its wall_ms -- host wall time, a sanity bound,
    // never a speed gate -- must stay positive and within
    // kWallTolerance of the old.
    auto benchRow = [&](const std::string &name, const json::Value *ov,
                        const json::Value *nv) {
        RowDiff row;
        row.name = name;
        row.onlyOld = nv == nullptr;
        row.onlyNew = ov == nullptr;
        struct Flat
        {
            std::map<std::string, double> stats, energy, ungated;
        } of, nf;
        auto side = [](const json::Value *v, RowDiff *r, bool isNew,
                       Flat &flat) {
            if (!v)
                return;
            (isNew ? r->newCycles : r->oldCycles) = v->intAt("cycles");
            (isNew ? r->newBytes : r->oldBytes) =
                v->intAt("bytes_streamed");
            double joules = 0.0;
            if (const json::Value *e = v->find("energy"))
                joules = e->numberAt("total");
            (isNew ? r->newEnergy : r->oldEnergy) = joules;
            // Every other numeric member diffs as a named value: the
            // "stats" and "energy" objects under their rules, the rest
            // (ratios, wall-derived rates) ungated.  wall_ms is checked
            // below instead.
            for (const auto &[k, m] : v->members()) {
                if (k == "cycles" || k == "bytes_streamed" ||
                    k == "wall_ms")
                    continue;
                walkNumeric(k, &m,
                            k == "stats"    ? flat.stats
                            : k == "energy" ? flat.energy
                                            : flat.ungated);
            }
        };
        side(ov, &row, false, of);
        side(nv, &row, true, nf);
        diffMaps(of.stats, nf.stats, &row.stats);
        diffMaps(of.energy, nf.energy, &row.energy);
        diffMaps(of.ungated, nf.ungated, &row.ungated);
        if (!ov || !nv)
            return row;

        auto violation = [&](const std::string &what) {
            d->violations.push_back(name + ": " + what);
        };
        if (ov->stringAt("suite") != nv->stringAt("suite"))
            violation("suite \"" + ov->stringAt("suite") + "\" -> \"" +
                      nv->stringAt("suite") + "\"");
        auto oneSided = [&](const std::map<std::string, double> &a,
                            const std::map<std::string, double> &b,
                            const char *side) {
            for (const auto &[path, v] : a)
                if (!b.count(path))
                    violation(path + " is a number in the " + side +
                              " row only");
        };
        oneSided(of.stats, nf.stats, "old");
        oneSided(nf.stats, of.stats, "new");
        oneSided(of.energy, nf.energy, "old");
        oneSided(nf.energy, of.energy, "new");

        double ow = ov->numberAt("wall_ms"), nw = nv->numberAt("wall_ms");
        if (!(ow > 0.0 && nw > 0.0) || nw > ow * kWallTolerance ||
            nw < ow / kWallTolerance) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "wall_ms %g -> %g is not positive or not "
                          "within %gx of the old",
                          ow, nw, kWallTolerance);
            violation(buf);
        }
        return row;
    };

    for (const auto &[name, ov] : om) {
        auto it = nm.find(name);
        RowDiff row =
            benchRow(name, ov, it == nm.end() ? nullptr : it->second);
        if (row.changed())
            d->rows.push_back(std::move(row));
    }
    for (const auto &[name, nv] : nm) {
        if (om.count(name))
            continue;
        RowDiff row = benchRow(name, nullptr, nv);
        if (row.changed())
            d->rows.push_back(std::move(row));
    }

    // Root-level aggregates (geo_mean_speedup and friends), derived
    // from the rows or from the host clock.
    std::map<std::string, double> orf, nrf;
    for (const auto &[k, m] : o.members())
        if (m.isNumber() && k != "schema_version")
            orf[k] = m.asDouble();
    for (const auto &[k, m] : n.members())
        if (m.isNumber() && k != "schema_version")
            nrf[k] = m.asDouble();
    RowDiff root;
    root.name = "(root)";
    diffMaps(orf, nrf, &root.ungated);
    if (root.changed())
        d->rows.push_back(std::move(root));
    return true;
}

void
diffMetricsDocs(const json::Value &o, const json::Value &n, Document *d)
{
    auto flatten = [](const json::Value &doc,
                      std::map<std::string, double> &out) {
        out["snapshot"] = doc.numberAt("snapshot");
        const json::Value *arr = doc.find("metrics");
        if (!arr || !arr->isArray())
            return;
        for (const json::Value &m : arr->elements()) {
            std::string key = m.stringAt("name");
            if (const json::Value *labels = m.find("labels");
                labels && !labels->members().empty()) {
                key += "{";
                bool first = true;
                for (const auto &[lk, lv] : labels->members()) {
                    if (!first)
                        key += ",";
                    key += lk + "=" +
                           (lv.isString() ? lv.asString()
                                          : json::dump(lv));
                    first = false;
                }
                key += "}";
            }
            for (const auto &[k, v] : m.members()) {
                if (k == "name" || k == "labels" || k == "type" ||
                    k == "help")
                    continue;
                walkNumeric(key + "." + k, &v, out);
            }
        }
    };
    std::map<std::string, double> om, nm;
    flatten(o, om);
    flatten(n, nm);
    RowDiff row;
    row.name = "metrics";
    diffMaps(om, nm, &row.stats);
    if (row.changed())
        d->rows.push_back(std::move(row));
}

bool
ruleValue(const FailRule &rule, double delta, double oldBase)
{
    double mag = std::fabs(delta);
    if (!rule.relative)
        return mag > rule.threshold;
    if (oldBase == 0.0)
        return mag > 0.0; // no base to scale by: any drift trips
    return mag > rule.threshold / 100.0 * std::fabs(oldBase);
}

std::string
fmtDelta(double v)
{
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%+lld", (long long)v);
    else
        std::snprintf(buf, sizeof(buf), "%+.6g", v);
    return buf;
}

std::string
fmtPct(double delta, double base)
{
    if (base == 0.0)
        return "";
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (%+.3f%%)", 100.0 * delta / base);
    return buf;
}

} // namespace

const char *
toString(ArtifactKind k)
{
    switch (k) {
      case ArtifactKind::Profile:  return "profile";
      case ArtifactKind::Sim:      return "sim";
      case ArtifactKind::Bench:    return "bench";
      case ArtifactKind::Metrics:  return "metrics";
      case ArtifactKind::Timeline: return "timeline";
      case ArtifactKind::Serve:    return "serve";
      case ArtifactKind::Unknown:  return "unknown";
    }
    return "?";
}

ArtifactKind
classify(const json::Value &doc)
{
    if (!doc.isObject())
        return ArtifactKind::Unknown;
    if (doc.find("buckets") && doc.find("total_cycles"))
        return ArtifactKind::Profile;
    if (doc.find("datasets"))
        return ArtifactKind::Bench;
    if (doc.find("metrics") && doc.find("snapshot"))
        return ArtifactKind::Metrics;
    if (doc.find("traceEvents"))
        return ArtifactKind::Timeline;
    if (doc.find("fleet") && doc.find("completed"))
        return ArtifactKind::Serve;
    if (doc.find("cycles") && doc.find("kernel"))
        return ArtifactKind::Sim;
    return ArtifactKind::Unknown;
}

bool
diff(const json::Value &oldDoc, const json::Value &newDoc, Document *out,
     std::string *err)
{
    *out = Document{};
    ArtifactKind ok = classify(oldDoc), nk = classify(newDoc);
    // Timelines and serve reports are checked, never diffed.
    if (ok >= ArtifactKind::Timeline || nk >= ArtifactKind::Timeline) {
        *err = "not a diffable artifact (expected a profile, sim report, "
               "BENCH, or metrics document)";
        return false;
    }
    if (ok != nk) {
        *err = std::string("artifact kinds differ: old is ") +
               toString(ok) + ", new is " + toString(nk);
        return false;
    }
    out->kind = ok;
    out->oldSchema = oldDoc.intAt("schema_version", 0);
    out->newSchema = newDoc.intAt("schema_version", 0);
    if (out->oldSchema != out->newSchema) {
        *err = "schema_version mismatch: old is " +
               std::to_string(out->oldSchema) + ", new is " +
               std::to_string(out->newSchema) +
               " (0 = legacy artifact without the field); regenerate "
               "both sides with the same build";
        return false;
    }

    diffProvenance(oldDoc, newDoc, out);
    switch (ok) {
      case ArtifactKind::Profile:
          diffProfileDocs(oldDoc, newDoc, out);
          break;
      case ArtifactKind::Sim:
          diffSimDocs(oldDoc, newDoc, out);
          break;
      case ArtifactKind::Bench:
          if (!diffBenchDocs(oldDoc, newDoc, out, err))
              return false;
          break;
      case ArtifactKind::Metrics:
          diffMetricsDocs(oldDoc, newDoc, out);
          break;
      case ArtifactKind::Timeline:
      case ArtifactKind::Serve:
      case ArtifactKind::Unknown:
          break;
    }

    for (const RowDiff &r : out->rows) {
        out->totalCycleDelta += r.cycleDelta();
        out->totalByteDelta += r.byteDelta();
        out->totalEnergyDelta += r.energyDelta();
    }
    return true;
}

void
writeText(std::ostream &os, const Document &d, size_t topK)
{
    os << "artifact: " << toString(d.kind) << " (schema "
       << d.newSchema << ")\n";
    for (const std::string &v : d.violations)
        os << "violation: " << v << "\n";
    if (d.empty()) {
        os << "no differences\n";
        return;
    }
    if (!d.conserved)
        os << "WARNING: bucket deltas do NOT sum to the total cycle "
              "delta (conservation violated)\n";
    for (const ProvenanceDelta &p : d.provenance)
        os << "provenance " << p.key << ": \"" << p.oldText
           << "\" -> \"" << p.newText << "\"\n";

    int64_t oldCycles = 0, oldBytes = 0;
    double oldEnergy = 0.0;
    for (const RowDiff &r : d.rows) {
        oldCycles += r.oldCycles;
        oldBytes += r.oldBytes;
        oldEnergy += r.oldEnergy;
    }
    os << "totals: cycles " << fmtDelta(double(d.totalCycleDelta))
       << fmtPct(double(d.totalCycleDelta), double(oldCycles))
       << ", bytes " << fmtDelta(double(d.totalByteDelta))
       << fmtPct(double(d.totalByteDelta), double(oldBytes));
    if (d.totalEnergyDelta != 0.0 || oldEnergy != 0.0)
        os << ", energy " << fmtDelta(d.totalEnergyDelta * 1e6)
           << " uJ" << fmtPct(d.totalEnergyDelta, oldEnergy);
    os << "\n";

    // Rows ranked by |cycle delta| (bench artifacts have many; profile
    // and sim have one).
    std::vector<const RowDiff *> rows;
    for (const RowDiff &r : d.rows)
        rows.push_back(&r);
    std::sort(rows.begin(), rows.end(),
              [](const RowDiff *a, const RowDiff *b) {
                  return std::llabs(a->cycleDelta()) >
                         std::llabs(b->cycleDelta());
              });
    for (const RowDiff *r : rows) {
        os << "\n" << r->name;
        if (r->onlyOld)
            os << " [only in old]";
        if (r->onlyNew)
            os << " [only in new]";
        os << ": cycles " << r->oldCycles << " -> " << r->newCycles
           << " (" << fmtDelta(double(r->cycleDelta()))
           << fmtPct(double(r->cycleDelta()), double(r->oldCycles))
           << "), bytes " << fmtDelta(double(r->byteDelta()));
        if (r->energyDelta() != 0.0)
            os << ", energy " << fmtDelta(r->energyDelta() * 1e6)
               << " uJ";
        os << "\n";

        if (!r->buckets.empty()) {
            // Waterfall: buckets ranked by |cycle delta|, with the
            // cumulative share of the total row delta.
            std::vector<const BucketDelta *> hot;
            for (const BucketDelta &b : r->buckets)
                hot.push_back(&b);
            std::sort(hot.begin(), hot.end(),
                      [](const BucketDelta *a, const BucketDelta *b) {
                          return std::llabs(a->cycleDelta()) >
                                 std::llabs(b->cycleDelta());
                      });
            os << "  top movers (of " << hot.size()
               << " changed buckets):\n";
            int64_t cum = 0;
            size_t shown = std::min(topK, hot.size());
            for (size_t i = 0; i < shown; ++i) {
                const BucketDelta *b = hot[i];
                cum += b->cycleDelta();
                char row[24];
                if (b->blockRow < 0)
                    std::snprintf(row, sizeof(row), "run");
                else
                    std::snprintf(row, sizeof(row), "row %lld",
                                  (long long)b->blockRow);
                char line[160];
                std::snprintf(line, sizeof(line),
                              "  %+12lld cyc  %-8s %-9s %-16s "
                              "(%llu -> %llu",
                              (long long)b->cycleDelta(),
                              b->dp.c_str(), row, b->cause.c_str(),
                              (unsigned long long)b->oldCycles,
                              (unsigned long long)b->newCycles);
                os << line;
                if (b->byteDelta() != 0)
                    os << ", bytes " << fmtDelta(double(b->byteDelta()));
                os << ")  cum " << fmtDelta(double(cum)) << "\n";
            }
            if (shown < hot.size())
                os << "  ... " << hot.size() - shown
                   << " more changed buckets\n";
        }
        if (!r->energy.empty()) {
            os << "  energy components:\n";
            for (const ValueDelta &e : r->energy)
                os << "    " << e.path << ": " << e.oldValue << " -> "
                   << e.newValue << " (" << fmtDelta(e.delta())
                   << fmtPct(e.delta(), e.oldValue) << ")\n";
        }
        for (const auto *list : {&r->stats, &r->ungated}) {
            if (list->empty())
                continue;
            size_t shown = std::min(topK, list->size());
            os << "  changed values"
               << (list == &r->ungated ? ", not gated (" : " (")
               << list->size() << "):\n";
            // Rank by |relative change| when a base exists, else
            // magnitude, so the interesting movers surface first.
            std::vector<const ValueDelta *> vs;
            for (const ValueDelta &v : *list)
                vs.push_back(&v);
            std::sort(vs.begin(), vs.end(),
                      [](const ValueDelta *a, const ValueDelta *b) {
                          return std::fabs(a->delta()) >
                                 std::fabs(b->delta());
                      });
            for (size_t i = 0; i < shown; ++i)
                os << "    " << vs[i]->path << ": " << vs[i]->oldValue
                   << " -> " << vs[i]->newValue << " ("
                   << fmtDelta(vs[i]->delta())
                   << fmtPct(vs[i]->delta(), vs[i]->oldValue) << ")\n";
            if (shown < list->size())
                os << "    ... " << list->size() - shown << " more\n";
        }
    }
}

void
writeJson(std::ostream &os, const Document &d)
{
    json::Writer w(os);
    auto triple = [&](const char *key, auto o, auto n) {
        w.key(key)
            .beginObject()
            .member("old", o)
            .member("new", n)
            .member("delta", n - o)
            .end();
    };
    auto valueList = [&](const char *key, const std::vector<ValueDelta> &vs) {
        w.key(key).beginArray();
        for (const ValueDelta &v : vs)
            w.beginObject()
                .member("path", v.path)
                .member("old", v.oldValue)
                .member("new", v.newValue)
                .member("delta", v.delta())
                .end();
        w.end();
    };
    w.beginObject()
        .member("schema_version", version::kJsonSchemaVersion)
        .member("artifact_kind", toString(d.kind))
        .member("artifact_schema", d.newSchema)
        .member("empty", d.empty())
        .member("conserved", d.conserved)
        .key("totals")
        .beginObject()
        .member("cycles", d.totalCycleDelta)
        .member("bytes", d.totalByteDelta)
        .member("energy_joules", d.totalEnergyDelta)
        .end()
        .key("provenance")
        .beginArray();
    for (const ProvenanceDelta &p : d.provenance)
        w.beginObject()
            .member("key", p.key)
            .member("old", p.oldText)
            .member("new", p.newText)
            .end();
    w.end().key("violations").beginArray();
    for (const std::string &v : d.violations)
        w.value(v);
    w.end().key("rows").beginArray();
    for (const RowDiff &r : d.rows) {
        w.beginObject().member("name", r.name);
        if (r.onlyOld)
            w.member("only_old", true);
        if (r.onlyNew)
            w.member("only_new", true);
        triple("cycles", r.oldCycles, r.newCycles);
        triple("bytes", r.oldBytes, r.newBytes);
        if (r.oldEnergy != 0.0 || r.newEnergy != 0.0)
            triple("energy_joules", r.oldEnergy, r.newEnergy);
        if (!r.buckets.empty()) {
            w.key("buckets").beginArray();
            for (const BucketDelta &b : r.buckets) {
                w.beginObject()
                    .member("dp", b.dp)
                    .member("block_row", b.blockRow)
                    .member("cause", b.cause);
                triple("cycles", b.oldCycles, b.newCycles);
                triple("bytes", b.oldBytes, b.newBytes);
                w.end();
            }
            w.end();
        }
        if (!r.energy.empty())
            valueList("energy_components", r.energy);
        if (!r.stats.empty())
            valueList("values", r.stats);
        if (!r.ungated.empty())
            valueList("ungated_values", r.ungated);
        w.end();
    }
    w.end().end();
    os << '\n';
}

void
writeFolded(std::ostream &pos, std::ostream &neg, const Document &d)
{
    for (const RowDiff &r : d.rows) {
        if (!r.buckets.empty()) {
            for (const BucketDelta &b : r.buckets) {
                int64_t delta = b.cycleDelta();
                if (delta == 0)
                    continue;
                std::ostream &os = delta > 0 ? pos : neg;
                os << r.name << ";" << b.dp << ";";
                if (b.blockRow < 0)
                    os << "run";
                else
                    os << "row_" << b.blockRow;
                os << ";" << b.cause << " " << std::llabs(delta)
                   << "\n";
            }
        } else if (r.cycleDelta() != 0) {
            // No bucket attribution (bench rows): fold the row-level
            // cycle delta so bench diffs still render.
            std::ostream &os = r.cycleDelta() > 0 ? pos : neg;
            os << r.name << ";cycles " << std::llabs(r.cycleDelta())
               << "\n";
        }
    }
}

bool
parseFailRule(const std::string &spec, FailRule *out, std::string *err)
{
    size_t gt = spec.find('>');
    if (gt == std::string::npos) {
        *err = "bad --fail-on '" + spec +
               "': expected METRIC>NUMBER[%] (e.g. 'cycles>0.1%')";
        return false;
    }
    std::string metric = spec.substr(0, gt);
    std::string number = spec.substr(gt + 1);
    if (metric == "cycles")
        out->metric = FailRule::Metric::Cycles;
    else if (metric == "bytes")
        out->metric = FailRule::Metric::Bytes;
    else if (metric == "energy")
        out->metric = FailRule::Metric::Energy;
    else if (metric == "stats")
        out->metric = FailRule::Metric::Stats;
    else {
        *err = "bad --fail-on metric '" + metric +
               "': one of cycles, bytes, energy, stats";
        return false;
    }
    out->relative = false;
    if (!number.empty() && number.back() == '%') {
        out->relative = true;
        number.pop_back();
    }
    char *end = nullptr;
    out->threshold = std::strtod(number.c_str(), &end);
    if (number.empty() || !end || *end != '\0' ||
        out->threshold < 0.0 || !std::isfinite(out->threshold)) {
        *err = "bad --fail-on threshold '" + number + "'";
        return false;
    }
    return true;
}

bool
parseFailRules(const std::string &spec, std::vector<FailRule> *out,
               std::string *err)
{
    out->clear();
    size_t start = 0;
    while (true) {
        size_t comma = spec.find(',', start);
        FailRule rule;
        if (!parseFailRule(spec.substr(start, comma - start), &rule, err))
            return false;
        out->push_back(rule);
        if (comma == std::string::npos)
            return true;
        start = comma + 1;
    }
}

bool
exceeds(const Document &d, const FailRule &rule)
{
    if (!d.violations.empty())
        return true;
    auto trips = [&](double delta, double base) {
        return ruleValue(rule, delta, base);
    };
    for (const RowDiff &r : d.rows) {
        if (r.onlyOld || r.onlyNew)
            return true; // appearing/vanishing rows always gate
        switch (rule.metric) {
          case FailRule::Metric::Cycles:
              if (trips(double(r.cycleDelta()), double(r.oldCycles)))
                  return true;
              for (const BucketDelta &b : r.buckets)
                  if (trips(double(b.cycleDelta()), double(b.oldCycles)))
                      return true;
              break;
          case FailRule::Metric::Bytes:
              if (trips(double(r.byteDelta()), double(r.oldBytes)))
                  return true;
              for (const BucketDelta &b : r.buckets)
                  if (trips(double(b.byteDelta()), double(b.oldBytes)))
                      return true;
              break;
          case FailRule::Metric::Energy:
              if (trips(r.energyDelta(), r.oldEnergy))
                  return true;
              for (const ValueDelta &v : r.energy)
                  if (trips(v.delta(), v.oldValue))
                      return true;
              break;
          case FailRule::Metric::Stats:
              for (const ValueDelta &v : r.stats)
                  if (trips(v.delta(), v.oldValue))
                      return true;
              break;
        }
    }
    return false;
}

std::string
gate(const Document &d, const std::vector<FailRule> &rules)
{
    for (const FailRule &rule : rules)
        if (exceeds(d, rule))
            return d.violations.empty() ? "diff exceeds " + describe(rule)
                                        : d.violations.front();
    return {};
}

std::string
describe(const FailRule &rule)
{
    static const char *const kMetric[] = {"cycles", "bytes", "energy",
                                          "stats"};
    char buf[96];
    std::snprintf(buf, sizeof(buf), "|%s delta| > %g%s",
                  kMetric[size_t(rule.metric)], rule.threshold,
                  rule.relative ? "%" : "");
    return buf;
}

// ---------------------------------------------------------------------
// alr_diff check: the schema and invariants of every artifact

namespace {

const json::Value kAbsent; // null: no members, no elements
constexpr size_t kDataPaths = size_t(DataPathType::DPr) + 1;
constexpr size_t kCauses = size_t(profile::Cause::kCount);
constexpr size_t kMetricKinds = size_t(metrics::MetricKind::Histogram) + 1;

/** Member @p key of @p obj, or kAbsent. */
const json::Value &
member(const json::Value &obj, std::string_view key)
{
    const json::Value *v = obj.find(key);
    return v ? *v : kAbsent;
}

/** Member @p key when it is a non-negative integer, else -1. */
int64_t
countAt(const json::Value &obj, std::string_view key)
{
    const json::Value &v = member(obj, key);
    return v.isInt() && v.asInt() >= 0 ? v.asInt() : -1;
}

/** The position of @p label among the labels toString(E(0 .. n-1)) its
 *  emitter writes, or -1. */
template <typename E, size_t n>
int
rankOf(const std::string &label)
{
    for (size_t i = 0; i < n; ++i)
        if (label == toString(E(i)))
            return int(i);
    return -1;
}

/** The checks of one artifact set, each recording what it finds. */
struct Checker
{
    std::vector<Finding> out;

    void expect(bool ok, const std::string &at, const std::string &what,
                Finding::Kind kind = Finding::Kind::Broken)
    {
        if (!ok)
            out.push_back({kind, at + ": " + what});
    }

    /** Each space-separated key of @p keys is a member of @p obj, of
     *  the shape its first character names: '#' a non-negative integer,
     *  '%' a number, '$' a string, '[' an array, '{' an object (else
     *  any value). */
    void need(const json::Value &obj, std::string_view keys,
              const std::string &at)
    {
        static const char *const kShapes[] = {
            "a non-negative integer", "a number", "a string", "an array",
            "an object", ""};
        for (size_t b = 0, e; b < keys.size(); b = e + 1) {
            e = std::min(keys.find(' ', b), keys.size());
            const size_t s = std::min<size_t>(
                std::string_view("#%$[{").find(keys[b]), 5);
            const std::string key(keys.substr(b + (s < 5), e - b - (s < 5)));
            const json::Value *v = obj.find(key);
            const bool shaped[] = {countAt(obj, key) >= 0, v && v->isNumber(),
                                   v && v->isString(), v && v->isArray(),
                                   v && v->isObject(), v != nullptr};
            if (!shaped[s])
                expect(false, at, v ? "'" + key + "' is not " + kShapes[s]
                                    : "no '" + key + "'");
        }
    }

    void schema(const json::Value &doc, const std::string &at)
    {
        const json::Value v(version::kJsonSchemaVersion);
        expect(member(doc, "schema_version") == v, at, "wrong schema_version");
    }

    /** A profile, against its sim report when one is named. */
    void profile(const json::Value &p, const std::string &at,
                 const json::Value *report)
    {
        const size_t faults = out.size();
        need(p, "{version $kernel #omega #total_cycles #attributed_cycles "
                "#attributed_bytes #runs [buckets {critical_path", at);
        need(member(p, "version"),
             "git simd_build simd_runtime omega_specializations", at);
        expect(countAt(p, "omega") != 0, at, "omega is 0");
        expect(countAt(p, "runs") != 0, at, "no runs recorded");
        const auto &buckets = member(p, "buckets").elements();
        auto key = [](const json::Value &b) {
            return std::array<int64_t, 3>{
                rankOf<DataPathType, kDataPaths>(b.stringAt("dp")),
                b.intAt("block_row", -2),
                rankOf<profile::Cause, kCauses>(b.stringAt("cause"))};
        };
        uint64_t cycles = 0, bytes = 0, waits = 0, rowWaits = 0;
        for (size_t i = 0; i < buckets.size(); ++i) {
            const json::Value &b = buckets[i];
            const std::string where = at + ": bucket " + std::to_string(i);
            const auto [d, row, k] = key(b);
            need(b, "$dp block_row $cause #cycles #bytes", where);
            expect(d >= 0 && k >= 0, where, "unknown dp or cause label");
            expect(row >= -1, where, "block_row below -1");
            expect(countAt(b, "cycles") != 0 || countAt(b, "bytes") != 0,
                   where, "empty bucket exported");
            expect(i == 0 || key(buckets[i - 1]) < key(b), where,
                   "buckets not sorted by (dp, block_row, cause)");
            cycles += uint64_t(countAt(b, "cycles"));
            bytes += uint64_t(countAt(b, "bytes"));
            if (k == int(profile::Cause::DSymgsWait))
                waits += uint64_t(countAt(b, "cycles"));
        }

        const json::Value &cp = member(p, "critical_path");
        const std::string where = at + ": critical_path";
        const auto &rows = member(cp, "per_block_row").elements();
        need(cp, "#longest_chain_cycles [longest_chain_rows [per_block_row",
             where);
        expect(member(cp, "longest_chain_rows").elements().size() == 2,
               where, "longest_chain_rows is not a [first, last] pair");
        expect(rows.empty() || countAt(cp, "longest_chain_cycles") != 0,
               where, "chains recorded but longest_chain_cycles is 0");
        for (size_t i = 0; i < rows.size(); ++i) {
            const json::Value &r = rows[i];
            const std::string rw = where + ": row " + std::to_string(i);
            need(r, "#block_row #chains #chain_cycles #wait_cycles "
                    "#start_stall_cycles #slack_cycles #dep_bound_chains", rw);
            expect(countAt(r, "dep_bound_chains") <= countAt(r, "chains"), rw,
                   "more dependence-bound chains than chains");
            expect(i == 0 || countAt(r, "block_row") >
                                 countAt(rows[i - 1], "block_row"),
                   rw, "rows not sorted by block_row");
            rowWaits += uint64_t(countAt(r, "wait_cycles"));
        }
        expect(!report || p.stringAt("kernel") == report->stringAt("kernel"),
               at, "kernel is not its sim report's");
        expect(!report ||
                   member(*report, "cycles") == member(p, "total_cycles"),
               at, "total_cycles is not its sim report's cycles");

        // The conservation contract, on a well-formed profile: exact
        // equality, no tolerance.
        if (out.size() != faults)
            return;
        const Finding::Kind lost = Finding::Kind::Unconserved;
        expect(member(p, "attributed_cycles") == json::Value(cycles), at,
               "bucket cycles sum to " + std::to_string(cycles), lost);
        expect(member(p, "total_cycles") == member(p, "attributed_cycles"),
               at, "attributed_cycles is not total_cycles", lost);
        expect(member(p, "attributed_bytes") == json::Value(bytes), at,
               "bucket bytes sum to " + std::to_string(bytes), lost);
        expect(rowWaits == waits, where,
               "wait cycles do not sum to the dsymgs_wait buckets", lost);
    }

    void sim(const json::Value &s, const std::string &at)
    {
        need(s, "$kernel #cycles %seconds %dram_bytes", at);
        expect(countAt(s, "cycles") != 0, at, "cycles is 0");
        if (const json::Value *stats = s.find("stats"))
            statGroup(*stats, at + ": stats");
        if (const json::Value *u = s.find("utilization")) {
            need(*u, "%alu_occupancy tree_occupancy bandwidth_utilization "
                     "%cache_hit_rate sequential_op_fraction "
                     "%reconfig_hidden_frac arithmetic_intensity "
                     "achieved_gflops attainable_gflops", at);
            for (const char *k :
                 {"alu_occupancy", "cache_hit_rate", "reconfig_hidden_frac"})
                expect(u->numberAt(k) >= 0.0 && u->numberAt(k) <= 1.0, at,
                       std::string(k) + " outside [0, 1]");
        }
        if (const json::Value *snap = s.find("snapshots")) {
            const size_t width = member(*snap, "columns").elements().size();
            const auto &rows = member(*snap, "rows").elements();
            need(*snap, "#interval [columns [rows", at + ": snapshots");
            for (size_t i = 0; i < rows.size(); ++i) {
                const std::string w = at + ": snapshot " + std::to_string(i);
                need(rows[i], "#cycle [values", w);
                expect(member(rows[i], "values").elements().size() == width,
                       w, "a row's width is not the column count");
                expect(i == 0 || countAt(rows[i], "cycle") >=
                                     countAt(rows[i - 1], "cycle"),
                       w, "snapshot cycles not monotone");
            }
        }
        if (const json::Value *p = s.find("profile")) {
            schema(*p, at + ": profile");
            profile(*p, at + ": profile", &s);
        }
    }

    void statGroup(const json::Value &g, const std::string &at)
    {
        need(g, "$group {stats", at);
        for (const auto &[name, e] : member(g, "stats").members()) {
            const std::string kind = e.stringAt("kind");
            need(e, "value desc $kind", at + "." + name);
            if (kind == "distribution")
                need(e, "count min max mean variance", at + "." + name);
            expect(kind == "distribution" || kind == "scalar" ||
                       kind == "formula",
                   at + "." + name, "unknown kind '" + kind + "'");
        }
        for (const json::Value &child : member(g, "children").elements())
            statGroup(child, at + "." + child.stringAt("group", "?"));
    }

    /** A timeline, against the sim report of its run when one is named:
     *  the modeled plane's clock is that run's cycles. */
    void timeline(const json::Value &t, const std::string &at,
                  const json::Value *report)
    {
        const auto &events = member(t, "traceEvents").elements();
        const int64_t end = report ? countAt(*report, "cycles") : -1;
        size_t spans = 0, metas = 0;
        need(t, "[traceEvents", at);
        for (size_t i = 0; i < events.size(); ++i) {
            const json::Value &ev = events[i];
            const std::string where = at + ": event " + std::to_string(i);
            const std::string ph = ev.stringAt("ph");
            need(ev, "$ph pid name", where);
            metas += ph == "M";
            spans += ph == "X";
            if (ph == "M" || ph.empty())
                continue;
            expect(ph == "X" || ph == "C" || ph == "i", where, "unknown ph");
            need(ev, ph == "X" ? "tid #ts #dur" : "tid #ts", where);
            if (ph == "C")
                need(member(ev, "args"), "value", where + ": args");
            const int64_t ts = countAt(ev, "ts"), dur = countAt(ev, "dur");
            expect(ph != "X" || end < 0 || ts < 0 || dur < 0 ||
                       countAt(ev, "pid") != timeline::kPidModeled ||
                       (ts <= end && dur <= end - ts),
                   where, "modeled span ends after the run's cycles");
        }
        expect(!events.empty(), at, "no traceEvents");
        expect(events.empty() || spans > 0, at, "no complete spans");
        expect(events.empty() || metas > 0, at, "no metadata events");
    }

    void metrics(const json::Value &m, const std::string &at)
    {
        const auto &list = member(m, "metrics").elements();
        need(m, "#snapshot [metrics", at);
        expect(countAt(m, "snapshot") != 0, at, "snapshot number is 0");
        expect(!list.empty(), at, "no metrics");
        std::map<std::string, int> seen;
        for (const json::Value &h : list) {
            const std::string type = h.stringAt("type");
            const std::string where = at + ": " + h.stringAt("name");
            need(h, "$name $type {labels", where);
            expect(seen[where + json::dump(member(h, "labels"))]++ == 0, where,
                   "repeats a label set");
            expect(rankOf<metrics::MetricKind, kMetricKinds>(type) >= 0, where,
                   "unknown type '" + type + "'");
            const bool histogram =
                type == toString(metrics::MetricKind::Histogram);
            need(h, histogram ? "#count %sum %min %max %mean {window {buckets"
                              : "%value",
                 where);
            if (!histogram)
                continue;
            const json::Value &window = member(h, "window");
            const json::Value &buckets = member(h, "buckets");
            const int64_t n = countAt(h, "count");
            const double mean = h.numberAt("mean");
            need(window, "#count %p50 %p95 %p99 %p99.9", where + ": window");
            expect(n < 0 || countAt(window, "count") <= n, where,
                   "window count exceeds the count");
            expect(n <= 0 || (h.numberAt("min") <= mean &&
                              mean <= h.numberAt("max")),
                   where, "min <= mean <= max violated");
            uint64_t sum = 0;
            for (const auto &[edge, unused] : buckets.members())
                sum += std::max<int64_t>(countAt(buckets, edge), 0);
            expect(n <= 0 || sum == uint64_t(n), where,
                   "bucket counts do not sum to count");
        }
    }

    /** The Prometheus text of @p snapshot: a TYPE line per family, and
     *  a _count line and a +Inf bucket line per histogram. */
    void prom(const std::string &text, const json::Value &snapshot,
              const std::string &at)
    {
        // A line that starts with @p head and holds @p tail after it.
        auto has = [&](const std::string &head, const std::string &tail) {
            std::istringstream in(text);
            for (std::string l; std::getline(in, l);)
                if (l.starts_with(head) && l.find(tail, head.size()) != l.npos)
                    return true;
            return false;
        };
        for (const json::Value &m : member(snapshot, "metrics").elements()) {
            const std::string name = m.stringAt("name");
            const std::string type = m.stringAt("type");
            expect(has("# TYPE " + name + " " + type, ""), at,
                   "no TYPE line for " + name);
            if (type == toString(metrics::MetricKind::Histogram)) {
                expect(has(name + "_count", " "), at, "no _count: " + name);
                expect(has(name + "_bucket", "le=\"+Inf\""), at,
                       "no +Inf bucket: " + name);
            }
        }
    }

    /** A serve report, against its metrics snapshot when one is named. */
    void serve(const json::Value &r, const std::string &at,
               const json::Value *snapshot)
    {
        const json::Value &slo = member(r, "slo");
        const int64_t done = countAt(r, "completed");
        need(r, "#completed {slo", at);
        need(slo, "{total [per_matrix", at + ": slo");
        // The good and bad counts of @p buckets add up to the completed
        // requests; a bucket that saw requests has monotone percentiles.
        auto tally = [&](const std::vector<json::Value> &buckets,
                         const std::string &where) {
            const size_t faults = out.size();
            uint64_t sum = 0;
            for (const json::Value &b : buckets) {
                const json::Value &lat = member(b, "latency_us");
                const double p[] = {lat.numberAt("p50"), lat.numberAt("p95"),
                                    lat.numberAt("p99"),
                                    lat.numberAt("p99.9")};
                need(b, "#requests #good #bad {latency_us", where);
                expect(countAt(b, "requests") <= 0 || std::is_sorted(p, p + 4),
                       where, "percentiles not monotone");
                for (const char *k : {"good", "bad"})
                    sum += uint64_t(countAt(b, k));
            }
            expect(out.size() != faults || done < 0 || sum == uint64_t(done),
                   where, "good + bad is " + std::to_string(sum));
        };
        tally({member(slo, "total")}, at + ": slo.total");
        tally(member(slo, "per_matrix").elements(), at + ": slo.per_matrix");
        if (!snapshot || done < 0)
            return;

        // Against the snapshot: each serve histogram observed every
        // completed request once, and a request's queue wait is part of
        // its latency, so wait's sum and maximum stay below latency's.
        json::Value unlabeled = json::Value::object();
        uint64_t perMatrix = 0;
        for (const json::Value &m : member(*snapshot, "metrics").elements())
            if (member(m, "labels").members().empty())
                unlabeled.set(m.stringAt("name"), m);
            else if (m.stringAt("name") == "serve_latency_us")
                perMatrix += std::max<int64_t>(countAt(m, "count"), 0);
        const json::Value &lat = member(unlabeled, "serve_latency_us");
        const json::Value &wait = member(unlabeled, "serve_queue_wait_us");
        const json::Value n(done);
        expect(member(lat, "count") == n, at,
               "the latency histogram count is not completed");
        expect(member(wait, "count") == n, at,
               "the queue-wait histogram count is not completed");
        expect(member(member(unlabeled, "serve_requests_completed"),
                      "value") == n,
               at, "serve_requests_completed is not completed");
        expect(perMatrix == uint64_t(done), at,
               "per-matrix latency counts do not sum to completed");
        for (const char *k : {"sum", "max"})
            expect(wait.numberAt(k) <= lat.numberAt(k) * (1.0 + 1e-9), at,
                   std::string("queue-wait ") + k + " exceeds latency " + k);
    }
};

} // namespace

std::vector<Finding>
check(const std::vector<Artifact> &artifacts)
{
    Checker c;
    std::map<ArtifactKind, std::vector<const json::Value *>> docs;
    for (const Artifact &a : artifacts)
        docs[classify(a.doc)].push_back(&a.doc);
    // The one document of kind @p k named with @p a: more than one is
    // ambiguous, and so is none when @p required.
    auto partner = [&](ArtifactKind k, const Artifact &a,
                       bool required = false) {
        const auto &d = docs[k];
        c.expect(d.size() == 1 || (d.empty() && !required), a.path,
                 std::to_string(d.size()) + " " + toString(k) +
                     " documents named with it",
                 Finding::Kind::Unreadable);
        return d.size() == 1 ? d[0] : nullptr;
    };
    for (const Artifact &a : artifacts) {
        const ArtifactKind k = classify(a.doc);
        const bool prom = a.path.ends_with(".prom");
        c.expect(prom || k != ArtifactKind::Unknown, a.path,
                 "unrecognized artifact", Finding::Kind::Unreadable);
        if (k != ArtifactKind::Unknown)
            c.schema(a.doc, a.path);
        if (const json::Value *snap =
                prom ? partner(ArtifactKind::Metrics, a, true) : nullptr)
            c.prom(a.text, *snap, a.path);
        if (k == ArtifactKind::Profile)
            c.profile(a.doc, a.path, partner(ArtifactKind::Sim, a));
        if (k == ArtifactKind::Sim)
            c.sim(a.doc, a.path);
        if (k == ArtifactKind::Timeline)
            c.timeline(a.doc, a.path, partner(ArtifactKind::Sim, a));
        if (k == ArtifactKind::Metrics)
            c.metrics(a.doc, a.path);
        if (k == ArtifactKind::Serve)
            c.serve(a.doc, a.path, partner(ArtifactKind::Metrics, a));
    }
    return c.out;
}

int
exitCode(const std::vector<Finding> &findings)
{
    static constexpr int kRank[] = {0, 1, 3, 2}; // by exit code: 2 > 3 > 1
    int code = 0;
    for (const Finding &f : findings)
        code = kRank[int(f.kind)] > kRank[code] ? int(f.kind) : code;
    return code;
}

} // namespace alr::diff
