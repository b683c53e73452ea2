#include "common/metrics.hh"

#include "common/json.hh"
#include "common/version.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/logging.hh"

namespace alr::metrics {

namespace {

/** Prometheus label-value escaping: backslash, quote, newline. */
void
promLabelValue(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        if (c == '\\')
            os << "\\\\";
        else if (c == '"')
            os << "\\\"";
        else if (c == '\n')
            os << "\\n";
        else
            os << c;
    }
}

void
promNumber(std::ostream &os, double v)
{
    if (std::isnan(v)) {
        os << "NaN";
    } else if (std::isinf(v)) {
        os << (v > 0 ? "+Inf" : "-Inf");
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << buf;
    }
}

/** `{k1="v1",k2="v2"}` or nothing; @p extra appends one more pair. */
void
promLabels(std::ostream &os, const Labels &labels,
           const std::string &extra_key = "",
           const std::string &extra_value = "")
{
    if (labels.empty() && extra_key.empty())
        return;
    os << '{';
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            os << ',';
        os << k << "=\"";
        promLabelValue(os, v);
        os << '"';
        first = false;
    }
    if (!extra_key.empty()) {
        if (!first)
            os << ',';
        os << extra_key << "=\"";
        promLabelValue(os, extra_value);
        os << '"';
    }
    os << '}';
}

/** Upper edge of log2 bucket @p b (Distribution: bucket 0 is (-inf,1),
 *  bucket b >= 1 is [2^(b-1), 2^b)). */
double
bucketUpperEdge(size_t b)
{
    return b == 0 ? 1.0 : std::ldexp(1.0, int(b));
}

} // namespace

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:   return "counter";
      case MetricKind::Gauge:     return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

void
Histogram::observe(double v)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _dist.sample(v);
    if (_window.size() < kWindow) {
        _window.push_back(v);
    } else {
        _window[_windowHead] = v;
        _windowFull = true;
    }
    _windowHead = (_windowHead + 1) % kWindow;
}

stats::Distribution
Histogram::distribution() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _dist;
}

std::vector<double>
Histogram::window() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_windowFull)
        return _window;
    std::vector<double> out;
    out.reserve(kWindow);
    for (size_t i = 0; i < kWindow; ++i)
        out.push_back(_window[(_windowHead + i) % kWindow]);
    return out;
}

uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _dist.count();
}

Registry::Metric &
Registry::findOrCreate(const std::string &name, const std::string &help,
                       const Labels &labels, MetricKind kind)
{
    Labels sorted_labels = labels;
    std::sort(sorted_labels.begin(), sorted_labels.end());
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &m : _metrics) {
        if (m->name == name && m->labels == sorted_labels) {
            ALR_ASSERT(m->kind == kind,
                       "metric '%s' re-registered as a different kind",
                       name.c_str());
            return *m;
        }
    }
    auto m = std::make_unique<Metric>();
    m->name = name;
    m->labels = std::move(sorted_labels);
    // Family help text: first registration wins (Prometheus renders
    // one HELP line per family).
    m->help = help;
    for (const auto &other : _metrics) {
        if (other->name == name) {
            m->help = other->help;
            ALR_ASSERT(other->kind == kind,
                       "metric family '%s' mixes kinds", name.c_str());
            break;
        }
    }
    m->kind = kind;
    switch (kind) {
      case MetricKind::Counter:
        m->counter = std::make_unique<Counter>();
        break;
      case MetricKind::Gauge:
        m->gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::Histogram:
        m->histogram = std::make_unique<Histogram>();
        break;
    }
    _metrics.push_back(std::move(m));
    return *_metrics.back();
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  Labels labels)
{
    return *findOrCreate(name, help, labels, MetricKind::Counter).counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                Labels labels)
{
    return *findOrCreate(name, help, labels, MetricKind::Gauge).gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    Labels labels)
{
    return *findOrCreate(name, help, labels, MetricKind::Histogram)
                .histogram;
}

size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _metrics.size();
}

bool
Registry::lookup(const std::string &name, const Labels &labels,
                 double *out) const
{
    Labels sorted_labels = labels;
    std::sort(sorted_labels.begin(), sorted_labels.end());
    std::lock_guard<std::mutex> lock(_mutex);
    for (const auto &m : _metrics) {
        if (m->name != name || m->labels != sorted_labels)
            continue;
        switch (m->kind) {
          case MetricKind::Counter: *out = m->counter->value(); break;
          case MetricKind::Gauge: *out = m->gauge->value(); break;
          case MetricKind::Histogram:
            *out = double(m->histogram->count());
            break;
        }
        return true;
    }
    return false;
}

std::vector<const Registry::Metric *>
Registry::sorted() const
{
    // Caller holds no lock; take it just to copy the pointer set.  The
    // metrics themselves are append-only, so the pointers stay valid
    // after the lock drops and the value reads below use each metric's
    // own synchronization.
    std::vector<const Metric *> out;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        out.reserve(_metrics.size());
        for (const auto &m : _metrics)
            out.push_back(m.get());
    }
    std::sort(out.begin(), out.end(),
              [](const Metric *a, const Metric *b) {
                  return std::tie(a->name, a->labels) <
                         std::tie(b->name, b->labels);
              });
    return out;
}

void
Registry::writeJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject()
        .member("schema_version", version::kJsonSchemaVersion)
        .member("snapshot", _snapshots.load())
        .key("metrics")
        .beginArray();
    for (const Metric *m : sorted()) {
        w.beginObject(true)
            .member("name", m->name)
            .member("type", toString(m->kind))
            .member("help", m->help)
            .key("labels")
            .beginObject();
        for (const auto &[k, v] : m->labels)
            w.member(k, v);
        w.end();
        if (m->kind == MetricKind::Histogram) {
            stats::Distribution d = m->histogram->distribution();
            std::vector<double> win = m->histogram->window();
            w.member("count", d.count())
                .member("sum", d.sum())
                .member("min", d.min())
                .member("max", d.max())
                .member("mean", d.mean())
                .key("window")
                .beginObject()
                .member("count", win.size());
            const std::pair<const char *, double> kWindow[] = {
                {"p50", 50.0}, {"p95", 95.0}, {"p99", 99.0}, {"p99.9", 99.9}};
            for (auto [key, p] : kWindow)
                w.member(key, exactPercentile(win, p));
            w.end().key("buckets").beginObject();
            // Keyed by the bucket's upper edge, 2^b.
            for (size_t b = 0; b < stats::Distribution::kBuckets; ++b)
                if (d.buckets()[b])
                    w.member(std::to_string(uint64_t(1) << b),
                             d.buckets()[b]);
            w.end();
        } else {
            w.member("value", m->kind == MetricKind::Counter
                                  ? m->counter->value()
                                  : m->gauge->value());
        }
        w.end();
    }
    w.end().end();
    os << '\n';
}

void
Registry::writePrometheus(std::ostream &os) const
{
    std::string last_family;
    for (const Metric *m : sorted()) {
        if (m->name != last_family) {
            os << "# HELP " << m->name << ' ' << m->help << '\n';
            os << "# TYPE " << m->name << ' ' << toString(m->kind)
               << '\n';
            last_family = m->name;
        }
        if (m->kind == MetricKind::Histogram) {
            stats::Distribution d = m->histogram->distribution();
            uint64_t cum = 0;
            for (size_t b = 0; b < stats::Distribution::kBuckets; ++b) {
                if (!d.buckets()[b])
                    continue;
                cum += d.buckets()[b];
                os << m->name << "_bucket";
                std::ostringstream edge;
                promNumber(edge, bucketUpperEdge(b));
                promLabels(os, m->labels, "le", edge.str());
                os << ' ' << cum << '\n';
            }
            os << m->name << "_bucket";
            promLabels(os, m->labels, "le", "+Inf");
            os << ' ' << d.count() << '\n';
            os << m->name << "_sum";
            promLabels(os, m->labels);
            os << ' ';
            promNumber(os, d.sum());
            os << '\n';
            os << m->name << "_count";
            promLabels(os, m->labels);
            os << ' ' << d.count() << '\n';
        } else {
            double v = m->kind == MetricKind::Counter
                           ? m->counter->value()
                           : m->gauge->value();
            os << m->name;
            promLabels(os, m->labels);
            os << ' ';
            promNumber(os, v);
            os << '\n';
        }
    }
}

bool
Registry::writeSnapshotFiles(const std::string &json_path,
                             const std::string &prom_path)
{
    _snapshots.fetch_add(1);
    auto publish = [&](const std::string &path, auto emit) {
        std::string tmp = path + ".tmp";
        {
            std::ofstream f(tmp);
            if (!f) {
                warn("cannot create metrics temp file '%s'", tmp.c_str());
                return false;
            }
            emit(f);
            f.flush();
            if (!f) {
                warn("metrics write to '%s' failed", tmp.c_str());
                return false;
            }
        }
        // rename(2) is atomic within a filesystem: a watcher reading
        // `path` sees either the previous complete document or this
        // one, never a prefix.
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            warn("cannot publish metrics snapshot '%s'", path.c_str());
            std::remove(tmp.c_str());
            return false;
        }
        return true;
    };
    bool ok = publish(json_path,
                      [&](std::ostream &os) { writeJson(os); });
    if (!prom_path.empty())
        ok = publish(prom_path, [&](std::ostream &os) {
                 writePrometheus(os);
             }) &&
             ok;
    return ok;
}

double
exactPercentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    if (p <= 0.0)
        return samples.front();
    if (p >= 100.0)
        return samples.back();
    // Linear interpolation between closest ranks (numpy's default):
    // rank r = p/100 * (n-1) sits between floor(r) and floor(r)+1.
    double r = p / 100.0 * double(samples.size() - 1);
    size_t lo = size_t(r);
    double frac = r - double(lo);
    if (lo + 1 >= samples.size())
        return samples.back();
    return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

} // namespace alr::metrics
