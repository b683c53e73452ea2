/**
 * @file
 * The repository benchmark program.  It drives the library's public API
 * through one workload per process and prints one JSON result line:
 *
 *   perfbench --workload pde_pcg|serve_warm --seed N
 *             --seconds S --trace 0|1 [--cache-dir DIR] [--spans FILE]
 *   perfbench --prime DIR
 *
 * --prime is the untimed cold pass of serve_warm: it loads the serving
 * fleet, compiles every schedule and saves the schedule caches into DIR,
 * which the measured serve_warm process then restores.
 *
 * Every workload generates its inputs from --seed outside every metric,
 * then repeats one fixed pass of work until --seconds have elapsed.  Every
 * pass is the same work on the same inputs, so every pass must model the
 * same cycles and bytes.  ops_per_s is the operations of every pass over
 * the seconds timed around them, and setup_s the median set-up: pde_pcg
 * sets up kSetups times, and a serve_warm pass starts with its own warm
 * start.  Outputs are checked against the golden kernels outside the
 * timed spans.
 *
 * --trace 1 prints the per-layer metrics instead.  Its passes alternate
 * between untraced and traced; traced passes record spans around calls
 * into each layer (in this file only), and the tracing overhead is the
 * difference of the two pass medians.  One more pass runs under the cycle
 * profiler.  Set-up layers the program calls internally (encode, hash,
 * compile) are timed by calling their public functions directly on the
 * loaded objects, outside the real call's span.  See perfbench/README.md.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/serve.hh"
#include "alrescha/sim/profile.hh"
#include "alrescha/sim/schedule.hh"
#include "common/metrics.hh"
#include "common/random.hh"
#include "datasets/suites.hh"
#include "kernels/blas1.hh"
#include "kernels/pcg.hh"
#include "kernels/spmv.hh"
#include "kernels/symgs.hh"
#include "sparse/generators.hh"

namespace {

using namespace alr;
using Clock = std::chrono::steady_clock;

// Workload sizes.  They are fixed here, not options: a later change's
// gain must show on what the benchmark always runs.
constexpr Index kStencilEdge = 48;     // pde_pcg: 48^3 rows, 27 points
constexpr int kPcgIterations = 8;      // per solve, tolerance 0
constexpr size_t kFleetSize = 6;       // serve_warm: scientificSuite(1)
constexpr uint32_t kServeRequests = 256; // per drain
constexpr uint32_t kBatchWindow = 16;
constexpr int kServeThreads = 2;
constexpr int kServePcgIterations = 8;
constexpr int kSetups = 5;             // pde_pcg set-ups
constexpr int kMinPasses = 4;          // timed passes, at least

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    return metrics::exactPercentile(std::move(v), 50.0);
}

/** A sub-seed for one use of the run seed (SplitMix64 finalizer). */
uint64_t
subSeed(uint64_t seed, uint64_t use)
{
    uint64_t z = seed + use * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and request id, kept in memory and
// written once at the end.  A span's self time is its duration minus its
// children's (spans nest on the one thread that records them).

struct Span
{
    const char *name;
    int64_t startNs;
    int64_t endNs;
    int32_t parent;
    int64_t request;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on), _t0(Clock::now()) {}

    bool on() const { return _on; }

    /** Run @p f, inside a span named @p name when tracing. */
    template <class F>
    decltype(auto) span(const char *name, F &&f, int64_t request = -1)
    {
        if (!_on)
            return f();
        int32_t idx = int32_t(_spans.size());
        _spans.push_back({name, nowNs(), 0, _current, request});
        _current = idx;
        struct Close
        {
            Tracer &t;
            int32_t idx;
            ~Close()
            {
                t._spans[size_t(idx)].endNs = t.nowNs();
                t._current = t._spans[size_t(idx)].parent;
            }
        } close{*this, idx};
        return f();
    }

    /** Durations (ms) of every span named @p name; @p self subtracts
     *  the time covered by its children. */
    std::vector<double> ms(const char *name, bool self = false) const
    {
        std::vector<int64_t> childNs(_spans.size(), 0);
        if (self)
            for (const Span &s : _spans)
                if (s.parent >= 0)
                    childNs[size_t(s.parent)] += s.endNs - s.startNs;
        std::vector<double> out;
        for (size_t i = 0; i < _spans.size(); ++i)
            if (std::strcmp(_spans[i].name, name) == 0)
                out.push_back(
                    double(_spans[i].endNs - _spans[i].startNs - childNs[i]) *
                    1e-6);
        return out;
    }

    void write(const std::string &path) const
    {
        std::ofstream os(path);
        for (const Span &s : _spans)
            os << "{\"name\": \"" << s.name << "\", \"start_ns\": "
               << s.startNs << ", \"end_ns\": " << s.endNs
               << ", \"parent\": " << s.parent
               << ", \"request\": " << s.request << "}\n";
        if (!os)
            std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                         path.c_str());
    }

  private:
    int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _t0)
            .count();
    }

    bool _on;
    Clock::time_point _t0;
    std::vector<Span> _spans;
    int32_t _current = -1;
};

// ---------------------------------------------------------------------
// Results.

struct Metric
{
    double value = 0.0;
    const char *unit = "";
};

/**
 * Per-call timings: every traced run prints, for each, the median X_ms,
 * the tail X_ms.tail (see tail()) and the sample count, 0 where the
 * workload does not exercise the layer.  Self-timed spans subtract their
 * children.
 */
struct CallTiming
{
    const char *span;
    const char *name;
    const char *countName;
    bool self = false;
};

const CallTiming kCallTimings[] = {
    {"accelerator.load", "accelerator.load_ms", "accelerator.load_ms.n"},
    {"format.encode", "format.encode_ms", "format.encode_ms.n"},
    {"config_table.convert", "config_table.convert_ms",
     "config_table.convert_ms.n"},
    {"format.hash", "format.hash_ms", "format.hash_ms.n"},
    {"config_table.hash", "config_table.hash_ms", "config_table.hash_ms.n"},
    {"engine.prepare", "engine.prepare_ms", "engine.prepare_ms.n"},
    {"schedule.compile", "schedule.compile_ms", "schedule.compile_ms.n"},
    {"serve.fleet_add", "serve.fleet_add_ms", "serve.fleet_add_ms.n"},
    {"schedule_io.restore", "schedule_io.restore_ms",
     "schedule_io.restore_ms.n"},
    {"serve.warm", "serve.warm_ms", "serve.warm_ms.n"},
    {"engine.spmv", "engine.spmv_ms", "engine.spmv_calls"},
    {"engine.symgs", "engine.symgs_ms", "engine.symgs_calls"},
    {"kernels.pcg", "kernels.pcg_glue_ms", "kernels.pcg_glue_ms.n", true},
    {"engine.spmm", "engine.spmm_ms", "engine.spmm_ms.n"},
    {"serve.plan", "serve.plan_ms", "serve.plan_ms.n"},
};

/** Per-layer scalars only some workloads set; the others print 0. */
const std::pair<const char *, const char *> kWorkloadScalars[] = {
    {"engine.prepare_unattributed_ms", "ms"},
    {"schedule_io.cache_mb", "MiB"},
    {"format.stream_mb", "MiB"},
    {"schedule.bytes_mb", "MiB"},
    {"format.block_density", "ratio"},
    {"serve.requests", "count"},
    {"serve.work_items", "count"},
    {"serve.batch_rhs_mean", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.queue_high_water", "count"},
    {"serve.blocked_pushes", "count"},
    {"engine.schedule_compiles", "count"},
    {"engine.schedule_hits", "count"},
};

struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Failed checks that are not operations (exactness, set-up). */
    std::vector<std::string> problems;
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }

    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 10)
                std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }

    void problem(const std::string &what)
    {
        std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
        problems.push_back(what);
    }
};

// ---------------------------------------------------------------------
// Modeled counters of one pass, summed over the engines it ran on.

struct Modeled
{
    double cycles = 0;
    double dramBytes = 0;
    double cacheHits = 0;
    double cacheMisses = 0;
    double bytesStreamed = 0;
    double randomAccesses = 0;
    double usefulBytes = 0;
    double reconfigs = 0;
    double reconfigStall = 0;
    double aluOps = 0;

    bool operator==(const Modeled &) const = default;
};

Modeled
readModeled(const std::vector<Accelerator *> &accs)
{
    Modeled m;
    for (const Accelerator *acc : accs) {
        const Engine &e = acc->engine();
        m.cycles += double(e.totalCycles());
        m.dramBytes += e.memory().totalBytes();
        m.cacheHits += e.rcu().cache().hits();
        m.cacheMisses += e.rcu().cache().misses();
        m.bytesStreamed += e.memory().bytesStreamed();
        m.randomAccesses += e.memory().randomAccesses();
        m.usefulBytes += e.statGroup().lookup("useful_bytes");
        m.reconfigs += e.rcu().reconfigurations();
        m.reconfigStall += e.rcu().reconfigStallCycles();
        m.aluOps += e.fcu().aluOps();
    }
    return m;
}

/** Cycles the profile attributed to each cause, in Cause order. */
using CauseCycles = std::vector<double>;

CauseCycles
profileCycles()
{
    CauseCycles by(size_t(profile::Cause::kCount), 0.0);
    for (const profile::BucketRow &row : profile::snapshot().buckets)
        by[size_t(row.cause)] += double(row.cycles);
    return by;
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** One pass: operations completed, host seconds timed around the work
 *  only, and the counters it modeled. */
struct Pass
{
    double ops = 0;
    double seconds = 0;
    Modeled modeled;
};

/** What the timed phase measured. */
struct Timed
{
    double ops = 0;     ///< every pass
    double seconds = 0; ///< timed, every pass
    std::vector<double> passRates; ///< ops / second, every pass
    std::vector<double> untracedSeconds;
    std::vector<double> tracedSeconds;
    Modeled modeled;     ///< of one pass
    CauseCycles profile; ///< of the profiled pass (traced runs)
    /** VmHWM after the first pass: the peak of a process that sets up
     *  and runs once.  Later passes only repeat the work, and how the
     *  allocator reuses the memory they free is noise. */
    double peakRssMiB = 0;
};

/**
 * The timed phase: repeat @p pass until @p seconds have elapsed (at least
 * kMinPasses).  @p pass(traced) starts from reset engine counters, runs
 * one pass and checks its outputs after timing it.  Every pass is the
 * same work, so every pass must model the same counters, traced or not.
 * A traced run ends with one more pass under the cycle profiler, outside
 * the traced-versus-untraced comparison because the profiler is far
 * costlier than spans; its buckets must sum exactly to the pass's
 * modeled cycles.
 */
Timed
timedPhase(double seconds, bool traceRun, Outcome &out,
           const std::function<Pass(bool)> &pass)
{
    Timed t;
    auto sameModel = [&](const Modeled &m, const std::string &what) {
        if (!(m == t.modeled))
            out.problem(what + " modeled other counters than pass 0");
    };
    auto t0 = Clock::now();
    for (int i = 0; i < kMinPasses || secondsSince(t0) < seconds; ++i) {
        bool traced = traceRun && i % 2 == 1;
        Pass p = pass(traced);
        if (i == 0) {
            t.modeled = p.modeled;
            t.peakRssMiB = peakRssMiB();
        }
        sameModel(p.modeled, "pass " + std::to_string(i));
        (traced ? t.tracedSeconds : t.untracedSeconds).push_back(p.seconds);
        t.ops += p.ops;
        t.seconds += p.seconds;
        t.passRates.push_back(p.ops / p.seconds);
    }
    std::fprintf(stderr, "perfbench: %zu passes, ops/s:", t.passRates.size());
    for (double r : t.passRates)
        std::fprintf(stderr, " %.4g", r);
    std::fprintf(stderr, "\n");
    if (traceRun) {
        profile::reset();
        profile::setEnabled(true);
        Pass p = pass(false);
        profile::setEnabled(false);
        sameModel(p.modeled, "the profiled pass");
        t.profile = profileCycles();
        double attributed = 0;
        for (double c : t.profile)
            attributed += c;
        if (attributed != p.modeled.cycles)
            out.problem("profile buckets sum to " +
                        std::to_string(attributed) + " cycles, the pass " +
                        "modeled " + std::to_string(p.modeled.cycles));
    }
    return t;
}

/** The per-call tail: the largest sample with at least ten samples
 *  beyond it, or the maximum when there are fewer than twenty samples
 *  (that sample would lie below the median). */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v.size() >= 20 ? v[v.size() - 11] : v.back();
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

constexpr double kMiB = 1024.0 * 1024.0;

/** Fill the end-to-end metrics. */
void
reportEndToEnd(Outcome &out, const std::vector<double> &setupSeconds,
               const Timed &t)
{
    out.set("setup_s", median(setupSeconds), "s");
    out.set("peak_rss_mb", t.peakRssMiB, "MiB");
    out.set("ops_per_s", t.ops / t.seconds, "1/s");
    out.set("modeled_cycles", t.modeled.cycles, "cycles");
    out.set("modeled_dram_bytes", t.modeled.dramBytes, "B");
}

/** Fill every per-layer metric: spans, the modeled counters of one pass,
 *  the profiled pass and the tracing overhead.  Workloads then set their
 *  own scalars. */
void
reportLayers(Outcome &out, const Tracer &tr, const Timed &t)
{
    for (const auto &[name, unit] : kWorkloadScalars)
        out.set(name, 0.0, unit);
    for (const CallTiming &c : kCallTimings) {
        std::vector<double> v = tr.ms(c.span, c.self);
        out.set(c.name, median(v), "ms");
        out.set(std::string(c.name) + ".tail", tail(v), "ms");
        out.set(c.countName, double(v.size()), "count");
    }
    const Modeled &m = t.modeled;
    out.set("engine.cycles", m.cycles, "cycles");
    out.set("mem.total_bytes", m.dramBytes, "B");
    out.set("cache.hits", m.cacheHits, "count");
    out.set("cache.misses", m.cacheMisses, "count");
    out.set("mem.bytes_streamed", m.bytesStreamed, "B");
    out.set("mem.random_accesses", m.randomAccesses, "count");
    out.set("engine.useful_bytes_frac",
            m.dramBytes > 0 ? m.usefulBytes / m.dramBytes : 0.0, "ratio");
    out.set("rcu.reconfigurations", m.reconfigs, "count");
    out.set("rcu.reconfig_stall_cycles", m.reconfigStall, "cycles");
    out.set("fcu.alu_ops", m.aluOps, "count");
    for (size_t c = 0; c < t.profile.size(); ++c)
        out.set(std::string("profile.") +
                    profile::toString(profile::Cause(c)) + "_cycles",
                t.profile[c], "cycles");
    double untraced = median(t.untracedSeconds);
    double overhead = median(t.tracedSeconds) - untraced;
    out.set("trace.overhead_ms", overhead * 1e3, "ms");
    out.set("trace.overhead_pct",
            untraced > 0 ? 100.0 * overhead / untraced : 0.0, "%");
}

/** Set-up decomposition helpers: the tables a PDE load builds. */
struct TableKey
{
    KernelType kernel;
    GsSweep dir;
};

const std::vector<TableKey> kPdeTables = {
    {KernelType::SymGS, GsSweep::Forward},
    {KernelType::SymGS, GsSweep::Backward},
    {KernelType::SpMV, GsSweep::Forward},
};

/** Keeps standalone results observable so no call is optimized away. */
uint64_t g_sink = 0;

/**
 * Time the layers a PDE load runs internally by calling their public
 * functions directly: encode @p loaded (the matrix as the accelerator
 * encodes it), convert each table of @p acc's loaded matrix, and the
 * content hashes the schedule cache keys on (one per matrix, one per
 * table); with @p compile also each table's compile.  Returns the
 * compiled schedules' bytes.
 */
double
decomposeLoad(Tracer &tr, const Accelerator &acc, const CsrMatrix &loaded,
              bool compile)
{
    const LocallyDenseMatrix &ld = acc.matrix();
    tr.span("format.encode", [&] {
        g_sink += LocallyDenseMatrix::encode(loaded, acc.params().omega,
                                             LdLayout::SymGs)
                      .stream()
                      .size();
    });
    for (const TableKey &k : kPdeTables)
        tr.span("config_table.convert", [&] {
            g_sink += ConfigTable::convert(k.kernel, ld, true, k.dir)
                          .entries()
                          .size();
        });
    g_sink ^= tr.span("format.hash", [&] { return ld.contentHash(); });
    for (const TableKey &k : kPdeTables)
        g_sink ^= tr.span("config_table.hash", [&] {
            return acc.table(k.kernel, k.dir).contentHash();
        });
    double bytes = 0;
    if (compile)
        for (const TableKey &k : kPdeTables)
            bytes += double(tr.span("schedule.compile", [&] {
                             return compileSchedule(
                                 ld, acc.table(k.kernel, k.dir), acc.params());
                         }).bytes());
    return bytes;
}

/** Compile (or claim) the schedules of @p acc's tables, each in an
 *  engine.prepare span; returns their bytes. */
double
prepareTables(Tracer &tr, Accelerator &acc)
{
    Engine &eng = acc.engine();
    double bytes = 0;
    for (const TableKey &k : kPdeTables) {
        eng.program(&acc.matrix(), &acc.table(k.kernel, k.dir));
        const ExecSchedule *s =
            tr.span("engine.prepare", [&] { return eng.prepareSchedule(); });
        bytes += s ? double(s->bytes()) : 0.0;
    }
    return bytes;
}

/** Prepare minus what the decomposition attributes to hashing and
 *  compiling, per set-up. */
double
prepareUnattributedMs(const Tracer &tr, double setups)
{
    return sum(tr.ms("engine.prepare")) / setups - sum(tr.ms("format.hash")) -
           sum(tr.ms("config_table.hash")) - sum(tr.ms("schedule.compile"));
}

DenseVector
seededVector(uint64_t seed, Index n)
{
    Rng rng(seed);
    DenseVector v(n);
    for (Value &x : v)
        x = rng.nextDouble(-1.0, 1.0);
    return v;
}

/** PCG through the library's own driver with span-recording kernels, so
 *  the kernels.pcg span's self time is the BLAS-1 glue. */
PcgResult
tracedPcg(Tracer &tr, Accelerator &acc, const DenseVector &b,
          const PcgOptions &opts)
{
    PcgKernels k;
    k.spmv = [&](const DenseVector &x) {
        return tr.span("engine.spmv", [&] { return acc.spmv(x); });
    };
    k.precond = [&](const DenseVector &r) {
        DenseVector z(r.size(), 0.0);
        tr.span("engine.symgs",
                [&] { acc.symgsSweep(r, z, GsSweep::Symmetric); });
        return z;
    };
    return tr.span("kernels.pcg", [&] {
        return pcgSolveWith(k, b, acc.matrix().rows(), opts);
    });
}

// ---------------------------------------------------------------------
// pde_pcg: a cold PDE solve, one caller in a closed loop.

void
runPde(uint64_t seed, double seconds, Tracer &tr, Outcome &out)
{
    const CsrMatrix a =
        gen::stencil3d(kStencilEdge, kStencilEdge, kStencilEdge, 27);
    const DenseVector b = seededVector(subSeed(seed, 1), a.rows());
    const Value normB = norm2(b);

    std::vector<double> setupSeconds;
    double scheduleBytes = 0;
    auto setUp = [&] {
        auto t0 = Clock::now();
        auto acc = std::make_unique<Accelerator>();
        tr.span("accelerator.load", [&] { acc->loadPde(a); });
        scheduleBytes = prepareTables(tr, *acc);
        setupSeconds.push_back(secondsSince(t0));
        if (acc->engine().scheduleCompiles() != kPdeTables.size())
            out.problem("cold set-up did not compile each table once");
        return acc;
    };
    std::unique_ptr<Accelerator> acc = setUp();

    PcgOptions opts;
    opts.maxIterations = kPcgIterations;
    opts.tolerance = 0.0; // every solve runs the same iterations
    Timed t = timedPhase(seconds, tr.on(), out, [&](bool traced) {
        acc->resetStats();
        auto t0 = Clock::now();
        PcgResult res = traced ? tracedPcg(tr, *acc, b, opts)
                               : acc->pcg(b, opts);
        double secs = secondsSince(t0);
        Modeled modeled = readModeled({acc.get()});

        // The true residual, with the golden SpMV, must match the one the
        // solver reports.
        DenseVector r = spmv(a, res.x);
        for (Index i = 0; i < a.rows(); ++i)
            r[i] = b[i] - r[i];
        double truth = norm2(r) / normB;
        bool ok = res.iterations == kPcgIterations &&
                  std::abs(truth - res.relResidual) <=
                      1e-6 * res.relResidual + 1e-12;
        out.check(ok, "pcg solve: reported residual " +
                          std::to_string(res.relResidual) + ", true " +
                          std::to_string(truth));
        return Pass{double(res.iterations), secs, modeled};
    });
    // The first set-up runs before the timed phase, so the peak after the
    // first pass is that of a process that sets up and runs once; the
    // rest, for the setup_s median, run after it.
    for (int s = 1; s < kSetups; ++s) {
        acc.reset();
        acc = setUp();
    }
    if (tr.on())
        decomposeLoad(tr, *acc, a, true);

    if (!tr.on()) {
        reportEndToEnd(out, setupSeconds, t);
        return;
    }
    reportLayers(out, tr, t);
    out.set("engine.prepare_unattributed_ms",
            prepareUnattributedMs(tr, kSetups), "ms");
    out.set("format.stream_mb", double(acc->matrix().streamBytes()) / kMiB,
            "MiB");
    out.set("schedule.bytes_mb", scheduleBytes / kMiB, "MiB");
    out.set("format.block_density", acc->matrix().blockDensity(), "ratio");
}

// ---------------------------------------------------------------------
// serve_warm: a warm-start serving drain.

std::vector<Dataset>
serveSuite()
{
    std::vector<Dataset> suite = scientificSuite(1);
    suite.resize(kFleetSize);
    return suite;
}

/** Load the fleet as alr_serve does: every entry on the PDE path. */
std::unique_ptr<ServeFleet>
addFleet(Tracer &tr, const std::vector<Dataset> &suite)
{
    auto fleet = std::make_unique<ServeFleet>();
    for (const Dataset &d : suite)
        tr.span("serve.fleet_add",
                [&] { fleet->add(d.name, d.matrix, true); });
    return fleet;
}

double
checksumOf(const DenseVector &v)
{
    double acc = 0.0;
    for (Value x : v)
        acc += x;
    return acc;
}

/** Golden result of one serving request: its checksum and the sum of
 *  magnitudes that scales the comparison. */
struct Golden
{
    double checksum = 0;
    double magnitude = 0;
};

/**
 * The serving trace: the default mix of TraceParams (Zipf popularity,
 * bursty arrivals, SpMV/SymGS/PCG weights) over the fleet, with the count
 * of every (matrix, op) pair fixed at its expected share of the requests
 * and only the arrival order drawn from the seed.  generateTrace draws
 * the counts too, so a drain's work would vary by tens of percent from
 * seed to seed; here only the batching the order allows varies.
 */
std::vector<ServeRequest>
serveTrace(uint64_t seed)
{
    const TraceParams mix;
    const ServeOp ops[] = {ServeOp::Spmv, ServeOp::Symgs, ServeOp::Pcg};
    const double opWeight[] = {mix.spmvWeight, mix.symgsWeight,
                               mix.pcgWeight};
    // Largest-remainder apportionment of the requests over the pairs.
    std::vector<double> share;
    for (size_t m = 0; m < kFleetSize; ++m)
        for (double w : opWeight)
            share.push_back(w / std::pow(double(m) + 1.0, mix.zipfS));
    double total = sum(share);
    std::vector<uint32_t> count(share.size());
    std::vector<std::pair<double, size_t>> rest;
    uint32_t given = 0;
    for (size_t c = 0; c < share.size(); ++c) {
        double exact = kServeRequests * share[c] / total;
        count[c] = uint32_t(exact);
        given += count[c];
        rest.push_back({count[c] - exact, c});
    }
    std::sort(rest.begin(), rest.end());
    for (size_t i = 0; given < kServeRequests; ++i, ++given)
        ++count[rest[i].second];

    // Bursty order: stay on the previous matrix with probability
    // `burstiness` while it has requests left, else draw a matrix in
    // proportion to the requests it has left; then draw one of its ops.
    Rng rng(seed);
    auto draw = [&](const std::vector<uint32_t> &weights) {
        uint64_t r = rng.nextRange(std::accumulate(
            weights.begin(), weights.end(), uint64_t(0)));
        size_t i = 0;
        for (; r >= weights[i]; ++i)
            r -= weights[i];
        return i;
    };
    std::vector<ServeRequest> trace;
    size_t prev = 0;
    for (uint32_t id = 0; id < kServeRequests; ++id) {
        std::vector<uint32_t> left(kFleetSize, 0);
        for (size_t c = 0; c < count.size(); ++c)
            left[c / 3] += count[c];
        size_t m = id > 0 && left[prev] > 0 &&
                           rng.nextDouble() < mix.burstiness
                       ? prev
                       : draw(left);
        size_t op = draw({count[m * 3], count[m * 3 + 1], count[m * 3 + 2]});
        --count[m * 3 + op];
        trace.push_back({id, uint32_t(m), ops[op]});
        prev = m;
    }
    return trace;
}

std::vector<Golden>
goldenServe(const std::vector<Dataset> &suite,
            const std::vector<ServeRequest> &trace, const ServeConfig &cfg)
{
    std::vector<Golden> g(trace.size());
    for (const ServeRequest &r : trace) {
        const CsrMatrix &a = suite[r.matrix].matrix;
        DenseVector in = serveRequestRhs(cfg.rhsSeed, r.id, a.rows());
        DenseVector y;
        if (r.op == ServeOp::Spmv) {
            y = spmv(a, in);
        } else if (r.op == ServeOp::Symgs) {
            y.assign(a.rows(), 0.0);
            gaussSeidelSweep(a, in, y, GsSweep::Symmetric);
        } else {
            PcgOptions opts;
            opts.maxIterations = cfg.pcgIterations;
            y = pcgSolve(a, in, opts).x;
        }
        double mag = 0;
        for (Value x : y)
            mag += std::abs(x);
        g[r.id] = {checksumOf(y), mag};
    }
    return g;
}

void
runServe(uint64_t seed, double seconds, const std::string &cacheDir,
         Tracer &tr, Outcome &out)
{
    const std::vector<Dataset> suite = serveSuite();
    const std::vector<ServeRequest> trace = serveTrace(subSeed(seed, 2));
    ServeConfig cfg;
    cfg.threads = kServeThreads;
    cfg.batchWindow = kBatchWindow;
    cfg.pcgIterations = kServePcgIterations;
    cfg.rhsSeed = subSeed(seed, 3);
    const std::vector<Golden> golden = goldenServe(suite, trace, cfg);

    // Each pass warm-starts a fresh fleet, as a serving process does, and
    // drains the trace once; the warm start is the pass's set-up sample.
    std::vector<double> setupSeconds;
    std::vector<double> queueWaitMs, serviceMs;
    ServeResult last;
    uint64_t drainHits = 0, drainCompiles = 0;
    Timed t = timedPhase(seconds, tr.on(), out, [&](bool traced) {
        Tracer off(false);
        Tracer &pt = traced ? tr : off;
        auto t0 = Clock::now();
        std::unique_ptr<ServeFleet> fleet = addFleet(pt, suite);
        size_t restored = pt.span("schedule_io.restore", [&] {
            return fleet->restoreScheduleCaches(cacheDir);
        });
        pt.span("serve.warm", [&] { fleet->warmSchedules(); });
        setupSeconds.push_back(secondsSince(t0));
        // A warm start that compiles would be measuring the cold path.
        out.check(restored == kFleetSize && fleet->scheduleCompiles() == 0,
                  "warm start restored " + std::to_string(restored) +
                      " caches and compiled " +
                      std::to_string(fleet->scheduleCompiles()) +
                      " schedules");

        std::vector<Accelerator *> accs;
        for (size_t i = 0; i < fleet->size(); ++i)
            accs.push_back(&fleet->at(i));
        auto hits = [&] {
            uint64_t h = 0;
            for (Accelerator *acc : accs)
                h += acc->engine().scheduleHits();
            return h;
        };
        uint64_t hits0 = hits();
        uint64_t compiles0 = fleet->scheduleCompiles();
        t0 = Clock::now();
        ServeResult res = pt.span(
            "serve.serve", [&] { return serve(*fleet, trace, cfg); });
        double secs = secondsSince(t0);
        Modeled modeled = readModeled(accs);

        drainCompiles = fleet->scheduleCompiles() - compiles0;
        if (drainCompiles != 0)
            out.problem("the drain compiled a schedule");
        drainHits = hits() - hits0;
        for (const ServeRequest &r : trace) {
            const Golden &g = golden[r.id];
            bool ok = std::abs(res.checksums[r.id] - g.checksum) <=
                      1e-9 * g.magnitude;
            out.check(ok, std::string("request ") + std::to_string(r.id) +
                              " (" + toString(r.op) + " on " +
                              suite[r.matrix].name + ")");
        }
        if (res.completed != trace.size())
            out.problem("drain completed " + std::to_string(res.completed) +
                        " of " + std::to_string(trace.size()) + " requests");
        if (traced) {
            for (size_t i = 0; i < trace.size(); ++i) {
                queueWaitMs.push_back(res.queueWaitUs[i] * 1e-3);
                serviceMs.push_back(
                    (res.latencyUs[i] - res.queueWaitUs[i]) * 1e-3);
            }
        }
        double done = double(res.completed);
        last = std::move(res);
        return Pass{done, secs, modeled};
    });

    if (!tr.on()) {
        reportEndToEnd(out, setupSeconds, t);
        return;
    }

    // Standalone decomposition, outside the timed phase: a second warm
    // fleet whose schedules are claimed one prepare at a time, the
    // hashes the claims compute, each matrix's load, encode and converts,
    // then the plan's items replayed through the same Accelerator calls
    // the drain makes.
    std::unique_ptr<ServeFleet> replay = addFleet(tr, suite);
    tr.span("schedule_io.restore",
            [&] { return replay->restoreScheduleCaches(cacheDir); });
    double scheduleBytes = 0;
    double streamBytes = 0;
    double useful = 0;
    for (size_t i = 0; i < replay->size(); ++i) {
        Accelerator &acc = replay->at(i);
        scheduleBytes += prepareTables(tr, acc);
        Accelerator standalone;
        tr.span("accelerator.load",
                [&] { standalone.loadPde(suite[i].matrix); });
        decomposeLoad(tr, acc, suite[i].matrix, false);
        streamBytes += double(acc.matrix().streamBytes());
        useful += acc.matrix().blockDensity() *
                  double(acc.matrix().streamBytes());
    }
    if (replay->scheduleCompiles() != 0)
        out.problem("the replay fleet's warm start compiled a schedule");

    std::vector<ServeWorkItem> plan = tr.span(
        "serve.plan", [&] { return buildServePlan(trace, cfg.batchWindow); });
    for (const ServeWorkItem &item : plan) {
        Accelerator &acc = replay->at(item.matrix);
        const Index n = acc.matrix().rows();
        const int64_t rid = item.requestIds[0];
        std::vector<double> sums;
        if (item.op == ServeOp::Spmv && item.requestIds.size() > 1) {
            std::vector<DenseVector> xs;
            for (uint32_t id : item.requestIds)
                xs.push_back(serveRequestRhs(cfg.rhsSeed, id, n));
            for (const DenseVector &y :
                 tr.span("engine.spmm", [&] { return acc.spmm(xs); }, rid))
                sums.push_back(checksumOf(y));
        } else if (item.op == ServeOp::Spmv) {
            DenseVector x = serveRequestRhs(cfg.rhsSeed, item.requestIds[0], n);
            sums.push_back(checksumOf(
                tr.span("engine.spmv", [&] { return acc.spmv(x); }, rid)));
        } else if (item.op == ServeOp::Symgs) {
            DenseVector b = serveRequestRhs(cfg.rhsSeed, item.requestIds[0], n);
            DenseVector x(n, 0.0);
            tr.span("engine.symgs",
                    [&] { acc.symgsSweep(b, x, GsSweep::Symmetric); }, rid);
            sums.push_back(checksumOf(x));
        } else {
            DenseVector b = serveRequestRhs(cfg.rhsSeed, item.requestIds[0], n);
            PcgOptions opts;
            opts.maxIterations = cfg.pcgIterations;
            sums.push_back(checksumOf(tracedPcg(tr, acc, b, opts).x));
        }
        // The drain's per-matrix gate runs every accelerator's items in
        // plan order, so the serial replay must reproduce its results.
        for (size_t j = 0; j < sums.size(); ++j)
            if (sums[j] != last.checksums[item.requestIds[j]])
                out.problem("replayed request " +
                            std::to_string(item.requestIds[j]) +
                            " differs from the drain");
    }

    reportLayers(out, tr, t);
    out.set("engine.prepare_unattributed_ms", prepareUnattributedMs(tr, 1),
            "ms");
    uintmax_t cacheBytes = 0;
    for (const auto &f : std::filesystem::directory_iterator(cacheDir))
        if (f.is_regular_file())
            cacheBytes += f.file_size();
    out.set("schedule_io.cache_mb", double(cacheBytes) / kMiB, "MiB");
    out.set("format.stream_mb", streamBytes / kMiB, "MiB");
    out.set("schedule.bytes_mb", scheduleBytes / kMiB, "MiB");
    out.set("format.block_density", useful / streamBytes, "ratio");
    out.set("serve.requests", double(queueWaitMs.size()), "count");
    out.set("serve.work_items", double(last.workItems), "count");
    out.set("serve.batch_rhs_mean", last.batchSize.mean(), "count");
    out.set("serve.queue_wait_p50_ms",
            metrics::exactPercentile(queueWaitMs, 50), "ms");
    out.set("serve.queue_wait_p99_ms",
            metrics::exactPercentile(queueWaitMs, 99), "ms");
    out.set("serve.service_p50_ms", metrics::exactPercentile(serviceMs, 50),
            "ms");
    out.set("serve.service_p99_ms", metrics::exactPercentile(serviceMs, 99),
            "ms");
    out.set("serve.queue_high_water", double(last.queueHighWater), "count");
    out.set("serve.blocked_pushes", double(last.queueBlockedPushes),
            "count");
    out.set("engine.schedule_compiles", double(drainCompiles), "count");
    out.set("engine.schedule_hits", double(drainHits), "count");
}

/** Writes the fleet's schedule caches after a cold warm-up. */
int
prime(const std::string &dir)
{
    const std::vector<Dataset> suite = serveSuite();
    Tracer off(false);
    auto t0 = Clock::now();
    std::unique_ptr<ServeFleet> fleet = addFleet(off, suite);
    fleet->warmSchedules();
    std::fprintf(stderr,
                 "perfbench: cold fleet set-up %.3f s (%llu compiles)\n",
                 secondsSince(t0),
                 (unsigned long long)fleet->scheduleCompiles());
    if (fleet->saveScheduleCaches(dir) != fleet->size()) {
        std::fprintf(stderr, "perfbench: cannot save caches in %s\n",
                     dir.c_str());
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload pde_pcg|serve_warm --seed N "
                 "--seconds S --trace 0|1 [--cache-dir DIR] [--spans FILE]\n"
                 "       perfbench --prime DIR\n");
    std::exit(2);
}

void
printResult(const Outcome &out)
{
    bool correct = out.failed == 0 && out.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed);
    const char *sep = "";
    for (const auto &[name, m] : out.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), m.value, m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, cacheDir, spansPath, primeDir;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(val);
        else if (arg == "--trace")
            trace = std::strcmp(val, "1") == 0;
        else if (arg == "--cache-dir")
            cacheDir = val;
        else if (arg == "--spans")
            spansPath = val;
        else if (arg == "--prime")
            primeDir = val;
        else
            usage();
    }
    if (!primeDir.empty())
        return prime(primeDir);
    if (seconds <= 0)
        usage();

    Tracer tr(trace);
    Outcome out;
    if (workload == "pde_pcg") {
        runPde(seed, seconds, tr, out);
    } else if (workload == "serve_warm") {
        if (cacheDir.empty())
            usage();
        runServe(seed, seconds, cacheDir, tr, out);
    } else {
        usage();
    }
    if (!spansPath.empty())
        tr.write(spansPath);
    std::fprintf(stderr, "perfbench: standalone result digest %llu\n",
                 (unsigned long long)g_sink);
    printResult(out);
    return 0;
}
