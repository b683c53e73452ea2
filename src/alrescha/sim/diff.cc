#include "alrescha/sim/diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

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
      case ArtifactKind::Profile: return "profile";
      case ArtifactKind::Sim:     return "sim";
      case ArtifactKind::Bench:   return "bench";
      case ArtifactKind::Metrics: return "metrics";
      case ArtifactKind::Unknown: return "unknown";
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
    if (ok == ArtifactKind::Unknown || nk == ArtifactKind::Unknown) {
        *err = "unrecognized artifact (expected a profile, sim report, "
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

} // namespace alr::diff
