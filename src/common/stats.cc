#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>

#include "common/logging.hh"

namespace alr::stats {

void
Distribution::sample(double v)
{
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += v;
    _sqsum += v * v;
    ++_buckets[bucketIndex(v)];
}

void
Distribution::reset()
{
    *this = Distribution();
}

void
Distribution::merge(const Distribution &o)
{
    if (o._count == 0)
        return;
    if (_count == 0) {
        *this = o;
        return;
    }
    _count += o._count;
    _sum += o._sum;
    _sqsum += o._sqsum;
    _min = std::min(_min, o._min);
    _max = std::max(_max, o._max);
    for (size_t b = 0; b < kBuckets; ++b)
        _buckets[b] += o._buckets[b];
}

double
Distribution::mean() const
{
    return _count ? _sum / double(_count) : 0.0;
}

double
Distribution::variance() const
{
    if (_count < 2)
        return 0.0;
    double m = mean();
    return std::max(0.0, _sqsum / double(_count) - m * m);
}

size_t
Distribution::bucketIndex(double v)
{
    if (!(v >= 1.0))
        return 0;
    int e = static_cast<int>(std::floor(std::log2(v)));
    return std::min<size_t>(kBuckets - 1, size_t(e) + 1);
}

double
Distribution::percentile(double p) const
{
    if (_count == 0)
        return 0.0;
    // The distribution's exact extrema beat the bucket approximation at
    // the endpoints (and p = 0 would otherwise report the first
    // nonempty bucket's upper edge, above the true minimum).
    if (p <= 0.0)
        return _min;
    if (p >= 100.0)
        return _max;
    double threshold = p / 100.0 * double(_count);
    uint64_t cum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        cum += _buckets[b];
        if (double(cum) >= threshold && cum > 0) {
            // Upper edge of bucket b: bucket 0 is (-inf, 1).
            double edge = b == 0 ? 1.0 : std::ldexp(1.0, int(b));
            return std::clamp(edge, _min, _max);
        }
    }
    return _max;
}

void
StatGroup::registerScalar(const std::string &stat_name, Scalar *stat,
                          const std::string &desc)
{
    ALR_ASSERT(stat != nullptr, "null scalar '%s'", stat_name.c_str());
    ALR_ASSERT(!_entries.count(stat_name), "duplicate stat '%s'",
               stat_name.c_str());
    Entry e;
    e.scalar = stat;
    e.desc = desc;
    _entries.emplace(stat_name, std::move(e));
}

void
StatGroup::registerFormula(const std::string &stat_name,
                           std::function<double()> formula,
                           const std::string &desc)
{
    ALR_ASSERT(!_entries.count(stat_name), "duplicate stat '%s'",
               stat_name.c_str());
    Entry e;
    e.formula = std::move(formula);
    e.desc = desc;
    _entries.emplace(stat_name, std::move(e));
}

void
StatGroup::registerDistribution(const std::string &stat_name,
                                Distribution *stat, const std::string &desc)
{
    ALR_ASSERT(stat != nullptr, "null distribution '%s'", stat_name.c_str());
    ALR_ASSERT(!_entries.count(stat_name), "duplicate stat '%s'",
               stat_name.c_str());
    Entry e;
    e.dist = stat;
    e.desc = desc;
    _entries.emplace(stat_name, std::move(e));
}

void
StatGroup::addChild(StatGroup *child)
{
    ALR_ASSERT(child != nullptr, "null child group");
    ALR_ASSERT(child != this, "group '%s' cannot be its own child",
               _name.c_str());
    for (StatGroup *c : _children) {
        if (c == child)
            return; // idempotent re-attach
        ALR_ASSERT(c->name() != child->name(),
                   "duplicate child group '%s'", child->name().c_str());
    }
    ALR_ASSERT(!_entries.count(child->name()),
               "child group '%s' collides with a stat", child->name().c_str());
    _children.push_back(child);
}

double
StatGroup::evaluate(const Entry &e) const
{
    if (e.scalar)
        return e.scalar->value();
    if (e.dist)
        return e.dist->mean();
    return e.formula();
}

const StatGroup::Entry *
StatGroup::find(const std::string &stat_name) const
{
    auto it = _entries.find(stat_name);
    if (it != _entries.end())
        return &it->second;
    size_t dot = stat_name.find('.');
    if (dot != std::string::npos) {
        std::string head = stat_name.substr(0, dot);
        for (const StatGroup *c : _children) {
            if (c->name() == head)
                return c->find(stat_name.substr(dot + 1));
        }
    }
    return nullptr;
}

double
StatGroup::lookup(const std::string &stat_name) const
{
    const Entry *e = find(stat_name);
    if (!e)
        panic("unknown stat '%s.%s'", _name.c_str(), stat_name.c_str());
    return evaluate(*e);
}

bool
StatGroup::has(const std::string &stat_name) const
{
    return find(stat_name) != nullptr;
}

void
StatGroup::resetAll()
{
    for (auto &[name, e] : _entries) {
        if (e.scalar)
            e.scalar->reset();
        if (e.dist)
            e.dist->reset();
    }
    for (StatGroup *c : _children)
        c->resetAll();
}

void
StatGroup::gather(const std::string &prefix,
                  std::vector<std::pair<std::string, const Entry *>> &out)
    const
{
    for (const auto &[name, e] : _entries)
        out.emplace_back(prefix + "." + name, &e);
    for (const StatGroup *c : _children)
        c->gather(prefix + "." + c->name(), out);
}

void
StatGroup::dump(std::ostream &os) const
{
    // Gather the whole subtree and sort by full dotted name so the
    // rendering is byte-identical to the historical flat registration
    // (one std::map keyed "mem.bytes_streamed" etc.).
    std::vector<std::pair<std::string, const Entry *>> rows;
    gather(_name, rows);
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (const auto &[name, e] : rows) {
        os << std::left << std::setw(40) << name;
        if (e->scalar) {
            os << std::setw(20) << e->scalar->value();
        } else if (e->dist) {
            os << "mean=" << e->dist->mean() << " min=" << e->dist->min()
               << " max=" << e->dist->max() << " n=" << e->dist->count();
        } else {
            os << std::setw(20) << e->formula();
        }
        os << " # " << e->desc << "\n";
    }
}

void
StatGroup::dumpJson(json::Writer &w) const
{
    w.beginObject().member("group", _name).key("stats").beginObject();
    for (const auto &[name, e] : _entries) {
        w.key(name)
            .beginObject(true)
            .member("value", evaluate(e))
            .member("desc", e.desc);
        if (e.scalar) {
            w.member("kind", "scalar");
        } else if (e.dist) {
            w.member("kind", "distribution")
                .member("count", e.dist->count())
                .member("min", e.dist->min())
                .member("max", e.dist->max())
                .member("mean", e.dist->mean())
                .member("variance", e.dist->variance())
                .member("p50", e.dist->percentile(50))
                .member("p90", e.dist->percentile(90))
                .member("p99", e.dist->percentile(99));
        } else {
            w.member("kind", "formula");
        }
        w.end();
    }
    w.end().key("children").beginArray();
    for (const StatGroup *c : _children)
        c->dumpJson(w);
    w.end().end();
}

std::vector<std::string>
StatGroup::statNames() const
{
    std::vector<std::pair<std::string, const Entry *>> rows;
    gather("", rows);
    std::vector<std::string> names;
    names.reserve(rows.size());
    for (const auto &[name, e] : rows)
        names.push_back(name.substr(1)); // drop the leading "."
    std::sort(names.begin(), names.end());
    return names;
}

StatSnapshotter::StatSnapshotter(const StatGroup &group,
                                 uint64_t interval_cycles)
    : _group(group), _interval(interval_cycles ? interval_cycles : 1),
      _next(_interval), _names(group.statNames())
{
}

void
StatSnapshotter::sampleNow(uint64_t now_cycles)
{
    Row row;
    row.cycle = now_cycles;
    row.values.reserve(_names.size());
    for (const std::string &name : _names)
        row.values.push_back(_group.lookup(name));
    _rows.push_back(std::move(row));
}

void
StatSnapshotter::maybeSample(uint64_t now_cycles)
{
    if (now_cycles < _next)
        return;
    sampleNow(now_cycles);
    _next = (now_cycles / _interval + 1) * _interval;
}

void
StatSnapshotter::dumpJson(json::Writer &w) const
{
    w.beginObject().member("interval", _interval);
    w.key("columns").beginArray(true);
    for (const std::string &name : _names)
        w.value(name);
    w.end().key("rows").beginArray();
    for (const Row &row : _rows) {
        w.beginObject(true).member("cycle", row.cycle).key("values")
            .beginArray();
        for (double v : row.values)
            w.value(v);
        w.end().end();
    }
    w.end().end();
}

void
StatSnapshotter::dumpCsv(std::ostream &os) const
{
    os << "cycle";
    for (const std::string &name : _names)
        os << "," << name;
    os << "\n";
    for (const Row &row : _rows) {
        os << row.cycle;
        for (double v : row.values) {
            os << ",";
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            os << buf;
        }
        os << "\n";
    }
}

} // namespace alr::stats
