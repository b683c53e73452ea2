/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Simulator components own Scalar / Formula / Distribution stats registered
 * in a StatGroup; a StatGroup can be dumped as a human-readable table or
 * queried programmatically by benches and tests.
 *
 * Groups form a hierarchy: a component owns its own StatGroup (named
 * "mem", "fcu", ...) and attaches it to its parent with addChild(), so
 * the engine's root group renders the full dotted namespace
 * ("alrescha.mem.bytes_streamed").  dump() output is byte-identical to
 * the historical flat registration scheme: entries are gathered
 * recursively and sorted by their full dotted name.
 *
 * Machine-readable export: dumpJson() renders the stable schema
 *   {"group": name, "stats": {stat: {"value", "desc", "kind", ...}},
 *    "children": [...]}
 * where distributions add count/min/max/mean/variance and approximate
 * p50/p90/p99 from log2-scale buckets.  StatSnapshotter samples a group
 * every N modeled cycles into an in-memory time series dumped as JSON
 * or CSV, turning cache hit rate, stream bandwidth, and link-stack
 * depth into curves instead of end-of-run totals.
 */

#ifndef ALR_COMMON_STATS_HH
#define ALR_COMMON_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace alr::stats {

/**
 * A named, monotonically accumulating scalar counter.
 *
 * Updates are lock-free atomics so engines running on pool workers
 * (multi-engine scale-out, parallel benches) cannot lose or corrupt
 * increments even when a counter is shared.  Relaxed ordering is
 * enough: counters are only read for reporting after the parallel
 * region joins.
 */
class Scalar
{
  public:
    Scalar() = default;
    Scalar(const Scalar &o) : _value(o.value()) {}
    Scalar &operator=(const Scalar &o)
    {
        set(o.value());
        return *this;
    }

    Scalar &operator+=(double v) { add(v); return *this; }
    Scalar &operator++() { add(1.0); return *this; }
    void add(double v)
    {
        double cur = _value.load(std::memory_order_relaxed);
        while (!_value.compare_exchange_weak(cur, cur + v,
                                             std::memory_order_relaxed)) {
        }
    }
    void set(double v) { _value.store(v, std::memory_order_relaxed); }
    void reset() { set(0.0); }

    double value() const { return _value.load(std::memory_order_relaxed); }
    operator double() const { return value(); }

  private:
    std::atomic<double> _value{0.0};
};

/**
 * A running distribution: tracks count, sum, min, max, and sum of squares
 * so mean and variance are available without storing samples, plus
 * log2-scale buckets for approximate percentiles.
 *
 * Unlike Scalar, sampling is not atomic: a Distribution must be owned
 * by one engine (one thread) at a time; parallel engines each own
 * their instance and results are merged at readout with merge().
 */
class Distribution
{
  public:
    /** Log2-scale bucket count; bucket b holds samples in [2^(b-1), 2^b). */
    static constexpr size_t kBuckets = 64;

    void sample(double v);
    void reset();

    /**
     * Fold another distribution into this one: counts, sums, extrema,
     * and buckets all accumulate, so merging per-engine instances at
     * readout is equivalent (for count/sum/min/max/mean/variance) to
     * having sampled every value into one distribution.
     */
    void merge(const Distribution &o);

    uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _min; }
    double max() const { return _max; }
    double mean() const;
    double variance() const;

    /**
     * Approximate @p p-th percentile (0..100) from the log2 buckets:
     * the upper edge of the bucket where the cumulative count crosses
     * p% of the samples, clamped to [min(), max()].  Exact only when
     * samples are powers of two; always within one bucket (2x) of the
     * true value.  Edge cases are exact: an empty distribution reports
     * 0, p <= 0 reports min(), p >= 100 reports max(), and a
     * single-sample distribution reports that sample for every p.
     */
    double percentile(double p) const;

    /** Bucket index a value lands in (exposed for tests). */
    static size_t bucketIndex(double v);
    const std::array<uint64_t, kBuckets> &buckets() const { return _buckets; }

  private:
    uint64_t _count = 0;
    double _sum = 0.0;
    double _sqsum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    std::array<uint64_t, kBuckets> _buckets{};
};

/**
 * A named collection of statistics.  Components register their counters at
 * construction time; dump() renders the canonical stats listing.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    /** Register a scalar under @p stat_name with a describing @p desc. */
    void registerScalar(const std::string &stat_name, Scalar *stat,
                        const std::string &desc);
    /** Register a derived value computed on demand at dump time. */
    void registerFormula(const std::string &stat_name,
                         std::function<double()> formula,
                         const std::string &desc);
    /** Register a distribution. */
    void registerDistribution(const std::string &stat_name,
                              Distribution *stat, const std::string &desc);

    /**
     * Attach @p child as a sub-group: its stats render under
     * "<this>.<child>.<stat>".  The child must outlive this group and
     * its name must not collide with a registered stat or another
     * child.  Re-attaching the same pointer under the same name is a
     * no-op so components can re-register idempotently.
     */
    void addChild(StatGroup *child);

    /**
     * Look up any registered value by name (formulas are evaluated).
     * Dotted names descend through children: "mem.bytes_streamed" on
     * the root resolves in the "mem" child.
     */
    double lookup(const std::string &stat_name) const;
    /** True if @p stat_name was registered (dotted names descend). */
    bool has(const std::string &stat_name) const;

    /** Reset all registered scalars and distributions, recursively. */
    void resetAll();

    /** Render "group.stat  value  # desc" lines for this group and all
     *  descendants, sorted by full dotted name. */
    void dump(std::ostream &os) const;

    /**
     * Write the group as @p w's next value, a JSON object with the
     * stable schema {"group", "stats": {name: {"value", "desc",
     * "kind"}}, "children"}.  Distribution entries additionally carry
     * count/min/max/mean/variance/p50/p90/p99; "value" is the mean.
     */
    void dumpJson(json::Writer &w) const;

    const std::string &name() const { return _name; }

    /**
     * Names of every stat reachable from this group, child stats
     * qualified with their dotted prefix ("mem.bytes_streamed"),
     * sorted.  Each name round-trips through lookup().
     */
    std::vector<std::string> statNames() const;

    const std::vector<StatGroup *> &children() const { return _children; }

  private:
    struct Entry
    {
        Scalar *scalar = nullptr;
        Distribution *dist = nullptr;
        std::function<double()> formula;
        std::string desc;
    };

    double evaluate(const Entry &e) const;
    void gather(const std::string &prefix,
                std::vector<std::pair<std::string, const Entry *>> &out)
        const;
    const Entry *find(const std::string &stat_name) const;

    std::string _name;
    std::map<std::string, Entry> _entries;
    std::vector<StatGroup *> _children;
};

/**
 * Samples a StatGroup every N modeled cycles into an in-memory time
 * series.  The driver calls maybeSample(now) at natural boundaries
 * (the engine does so after each kernel run); one row is captured per
 * call once `now` has crossed the next interval boundary, so the
 * cadence is interval-aligned but run-granular — rows carry the actual
 * cycle they were captured at.
 */
class StatSnapshotter
{
  public:
    StatSnapshotter(const StatGroup &group, uint64_t interval_cycles);

    /** Capture a row if @p now_cycles crossed the next boundary. */
    void maybeSample(uint64_t now_cycles);
    /** Capture a row unconditionally (initial/final sample). */
    void sampleNow(uint64_t now_cycles);

    size_t rows() const { return _rows.size(); }
    uint64_t interval() const { return _interval; }
    const std::vector<std::string> &names() const { return _names; }

    /** {"interval": N, "columns": [...], "rows": [{"cycle", "values"}]}
     *  as @p w's next value. */
    void dumpJson(json::Writer &w) const;
    /** Header "cycle,<columns...>" then one CSV line per row. */
    void dumpCsv(std::ostream &os) const;

  private:
    struct Row
    {
        uint64_t cycle;
        std::vector<double> values;
    };

    const StatGroup &_group;
    uint64_t _interval;
    uint64_t _next;
    std::vector<std::string> _names;
    std::vector<Row> _rows;
};

} // namespace alr::stats

#endif // ALR_COMMON_STATS_HH
