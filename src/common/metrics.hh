/**
 * @file
 * Live metrics registry for the serving plane (ISSUE 9).
 *
 * The engine layers carry a deep modeled-cycle observability stack
 * (stats, timeline, profiler); this registry covers the *request*
 * plane: named counters, gauges, and histograms with (label, value)
 * pairs -- per-matrix, per-accelerator, per-op -- that a long-lived
 * serve fleet updates live and a watcher samples while the fleet runs.
 *
 * Exposition formats:
 *  - writeJson(): one self-contained JSON document (the schema
 *    diff::check -- alr_diff check -- validates);
 *  - writePrometheus(): Prometheus text exposition format 0.0.4
 *    (`# HELP` / `# TYPE` / `name{label="v"} value` lines), so the
 *    snapshot file can be scraped by node_exporter's textfile
 *    collector or tailed directly;
 *  - writeSnapshotFiles(): both documents, each written to a temp file
 *    in the target directory and atomically rename()d into place, so a
 *    concurrent reader always sees a complete document.
 *
 * Thread model: counter/gauge updates are relaxed atomics (same policy
 * as stats::Scalar); histogram observation takes a per-histogram
 * mutex.  Metric *registration* (counter()/gauge()/histogram()) takes
 * the registry mutex and returns a stable reference: handles stay
 * valid for the registry's lifetime, so hot paths register once and
 * update lock-free.  None of this perturbs modeled state: the registry
 * only observes numbers the serving layer already computes, and a null
 * registry pointer disables every update site.
 */

#ifndef ALR_COMMON_METRICS_HH
#define ALR_COMMON_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace alr::metrics {

/** Sorted (key, value) label pairs; part of a metric's identity. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** A monotonically increasing counter (relaxed-atomic updates). */
class Counter
{
  public:
    void add(double v) { _value.add(v); }
    Counter &operator+=(double v) { add(v); return *this; }
    Counter &operator++() { add(1.0); return *this; }
    double value() const { return _value.value(); }

  private:
    stats::Scalar _value;
};

/** A settable instantaneous value (queue depth, in-flight requests). */
class Gauge
{
  public:
    void set(double v) { _value.set(v); }
    void add(double v) { _value.add(v); }
    double value() const { return _value.value(); }

  private:
    stats::Scalar _value;
};

/**
 * A histogram over observed samples: a cumulative stats::Distribution
 * (log2 buckets, count/sum/min/max) plus a bounded rolling window of
 * the most recent raw samples, so snapshots can report *exact* recent
 * percentiles next to the all-time bucketed ones.  Observation takes a
 * mutex (histograms are sampled from many serve workers).
 */
class Histogram
{
  public:
    /** Rolling-window capacity in samples. */
    static constexpr size_t kWindow = 4096;

    void observe(double v);

    /** Copy of the cumulative distribution (thread-safe). */
    stats::Distribution distribution() const;

    /** Most recent samples, oldest first (at most kWindow of them). */
    std::vector<double> window() const;

    uint64_t count() const;

  private:
    mutable std::mutex _mutex;
    stats::Distribution _dist;
    std::vector<double> _window; // ring, _windowHead = next write slot
    size_t _windowHead = 0;
    bool _windowFull = false;
};

/** What a registered metric is, for exposition. */
enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

const char *toString(MetricKind kind);

/**
 * The registry: owns every metric, keyed by (name, labels).  Multiple
 * label sets under one name form a metric family and share the family
 * help text (first registration wins), exactly like Prometheus.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Find-or-create; the returned reference stays valid for the
     *  registry's lifetime.  Registering an existing (name, labels)
     *  pair under a different kind is a logic error (asserted). */
    Counter &counter(const std::string &name, const std::string &help,
                     Labels labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 Labels labels = {});
    Histogram &histogram(const std::string &name, const std::string &help,
                         Labels labels = {});

    /** Registered metric count (all label sets). */
    size_t size() const;

    /** Look up a metric's current scalar value (counter/gauge) or
     *  sample count (histogram); returns false when absent. */
    bool lookup(const std::string &name, const Labels &labels,
                double *out) const;

    /**
     * One JSON document:
     *   {"snapshot": N, "metrics": [{"name", "type", "help", "labels",
     *    ...value or histogram fields...}]}
     * Histogram entries carry count/sum/min/max/mean, exact
     * window percentiles p50/p95/p99/p999, and the occupied log2
     * buckets as {"upper_edge": count}.  Metrics are sorted by
     * (name, labels) so successive snapshots diff cleanly.
     */
    void writeJson(std::ostream &os) const;

    /** Prometheus text exposition format 0.0.4.  Histograms render as
     *  <name>_count / <name>_sum plus cumulative <name>_bucket lines
     *  with le="..." upper edges from the occupied log2 buckets. */
    void writePrometheus(std::ostream &os) const;

    /**
     * Atomically publish both documents: @p json_path gets writeJson()
     * and (unless empty) @p prom_path gets writePrometheus(), each via
     * write-to-temp + rename so a reader never observes a torn file.
     * Returns false (after warn) if any step fails.  Bumps the
     * snapshot sequence number embedded in the JSON document.
     */
    bool writeSnapshotFiles(const std::string &json_path,
                            const std::string &prom_path = "");

    /** Snapshot sequence number (count of writeSnapshotFiles calls). */
    uint64_t snapshots() const { return _snapshots.load(); }

  private:
    struct Metric
    {
        std::string name;
        Labels labels;
        std::string help;
        MetricKind kind = MetricKind::Counter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Metric &findOrCreate(const std::string &name, const std::string &help,
                         const Labels &labels, MetricKind kind);
    std::vector<const Metric *> sorted() const;

    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Metric>> _metrics;
    std::atomic<uint64_t> _snapshots{0};
};

/**
 * Exact percentile of a sample set: linear interpolation between order
 * statistics (the "exclusive" definition degenerates avoided -- this
 * is numpy's default "linear" method).  Edge cases match
 * stats::Distribution::percentile: empty -> 0, p <= 0 -> min,
 * p >= 100 -> max, single sample -> that sample.  O(n log n) on a
 * copy; fine for end-of-run reporting.
 */
double exactPercentile(std::vector<double> samples, double p);

} // namespace alr::metrics

#endif // ALR_COMMON_METRICS_HH
