/**
 * @file
 * Schedule replay ablation: SpMV replay of the compiled schedule on the
 * three largest fig18 datasets under every --simd mode the machine can
 * actually run, timed single-threaded.  Every mode must agree bit for
 * bit -- results, cycles, and stat dumps -- or the bench fails.  (The
 * test-only reference engine pins the scheduled engine itself; see
 * test_schedule.)  Then the timeline recorder's wall-clock overhead on
 * the largest dataset, on runs that walk the schedule either way, also
 * gated.
 *
 * Usage: abl_schedule [REPS]   (timed replays per mode, default 10)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "alrescha/sim/replay.hh"
#include "bench/bench_util.hh"
#include "common/metrics.hh"
#include "common/timeline.hh"

using namespace alr;
using namespace alr::bench;

namespace {

std::string
statDump(Accelerator &acc)
{
    std::ostringstream os;
    acc.engine().statGroup().dump(os);
    return os.str();
}

AccelParams
spmvParams(SimdMode mode)
{
    AccelParams p;
    p.simdMode = mode;
    p.hostThreads = 1; // single-threaded functional pass
    return p;
}

/** The --simd modes this machine runs natively (no fallback). */
std::vector<SimdMode>
runnableModes()
{
    std::vector<SimdMode> modes;
    for (SimdMode m : {SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2,
                       SimdMode::Avx512, SimdMode::Neon}) {
        if (std::string(replay::selectedName(m)) == replay::toString(m))
            modes.push_back(m);
    }
    return modes;
}

/**
 * Replay sweep: the three largest fig18 datasets by nnz, SpMV replay
 * timed single-threaded under every runnable --simd mode.  Returns
 * false when any mode diverges from forced scalar.
 */
bool
replaySweep(int reps)
{
    std::printf("\n== Ablation: schedule replay by --simd mode ==\n\n");
    std::printf("compiled ISAs: %s; auto selects %s; %d timed SpMV "
                "replays per mode, 1 thread\n\n",
                replay::compiledIsas(), replay::isaName(), reps);

    std::vector<Dataset> all = scientificSuite();
    for (Dataset &d : graphSuite())
        all.push_back(std::move(d));
    std::sort(all.begin(), all.end(),
              [](const Dataset &x, const Dataset &y) {
                  return x.matrix.nnz() > y.matrix.nnz();
              });
    all.resize(std::min<size_t>(3, all.size()));

    const std::vector<SimdMode> modes = runnableModes();
    std::vector<std::string> headers = {"dataset", "nnz"};
    for (SimdMode m : modes)
        headers.push_back(std::string(replay::toString(m)) + " ms");
    Table table(headers);

    std::vector<double> simd_speedups; // widest mode vs forced scalar
    bool ok = true;
    for (const Dataset &d : all) {
        std::vector<std::unique_ptr<Accelerator>> accs;
        for (SimdMode m : modes)
            accs.push_back(std::make_unique<Accelerator>(spmvParams(m)));
        for (auto &acc : accs)
            acc->loadSpmvOnly(d.matrix);

        DenseVector x(d.matrix.cols());
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = Value(i % 23) - 11.0;

        // Bit-identity gate before timing anything: one run in each
        // mode must agree with forced scalar (modes[0]) on the result
        // vector, the modeled cycles, and the entire stat dump.
        Accelerator &scalar = *accs.front();
        DenseVector ys = scalar.spmv(x);
        auto diverges = [&](Accelerator &acc) {
            return ys != acc.spmv(x) ||
                   scalar.report().cycles != acc.report().cycles ||
                   statDump(scalar) != statDump(acc);
        };
        bool diverged = false;
        for (size_t i = 1; i < accs.size(); ++i)
            diverged = diverges(*accs[i]) || diverged;
        if (diverged) {
            std::printf("ERROR: %s: replay modes diverged\n",
                        d.name.c_str());
            ok = false;
            continue;
        }

        auto time = [&](Accelerator &acc) {
            auto t0 = std::chrono::steady_clock::now();
            for (int r = 0; r < reps; ++r)
                acc.spmv(x);
            return wallMsSince(t0) / reps;
        };
        std::vector<std::string> row = {d.name,
                                        std::to_string(d.matrix.nnz())};
        double scalar_ms = 0.0, widest_ms = 0.0;
        for (size_t i = 0; i < accs.size(); ++i) {
            double ms = time(*accs[i]);
            if (modes[i] == SimdMode::Scalar)
                scalar_ms = ms;
            widest_ms = ms; // modes are ordered narrowest to widest
            row.push_back(fmt(ms, 3));
        }
        table.addRow(row);
        if (scalar_ms > 0.0 && widest_ms > 0.0 && modes.size() > 1)
            simd_speedups.push_back(scalar_ms / widest_ms);
    }
    table.print();
    if (!simd_speedups.empty())
        std::printf("\ngeo-mean SIMD replay speedup (widest vs forced "
                    "scalar): %.2fx\n",
                    geoMean(simd_speedups));
    if (ok)
        std::printf("results, cycles, and stat dumps identical across "
                    "all replay modes\n");
    return ok;
}

/**
 * Timeline recorder overhead: timed SpMVs on the largest fig18 dataset
 * with the recorder off vs on, alternating.  A run that records the
 * modeled plane always walks its schedule (the timing memo would skip
 * the events), so the gated cost compares walking runs on both sides:
 * before each timed run, outside the timer, the schedule is dropped
 * and recompiled, which leaves its memo empty.  The engine coalesces
 * spans per data-path segment, so an SpMV run emits a handful of
 * events and the recorder's own cost is expected well under 1%; the
 * hard 25% gate on the medians is generous because short timed runs
 * on a shared CI machine jitter.  What recording costs a repeated run
 * -- it walks where an unrecorded run replays the memo -- is printed
 * as the memo loss, and not gated.
 */
bool
timelineOverhead(int reps)
{
    std::printf("\n== Ablation: timeline recorder overhead ==\n\n");

    std::vector<Dataset> all = scientificSuite();
    for (Dataset &d : graphSuite())
        all.push_back(std::move(d));
    auto largest = std::max_element(
        all.begin(), all.end(), [](const Dataset &x, const Dataset &y) {
            return x.matrix.nnz() < y.matrix.nnz();
        });

    Accelerator acc(spmvParams(SimdMode::Auto));
    acc.loadSpmvOnly(largest->matrix);
    DenseVector x(largest->matrix.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 23) - 11.0;
    acc.spmv(x); // program the engine

    auto timed = [&] {
        auto t0 = std::chrono::steady_clock::now();
        acc.spmv(x);
        return wallMsSince(t0);
    };
    auto walking = [&] {
        acc.engine().invalidateSchedules();
        acc.engine().prepareSchedule();
        return timed();
    };
    auto recorded = [&](auto run) {
        timeline::setEnabled(true);
        double ms = run();
        timeline::setEnabled(false);
        return ms;
    };
    auto median = [](const std::vector<double> &ms) {
        return metrics::exactPercentile(ms, 50.0);
    };

    std::vector<double> walkOff, walkOn, repeatOff, repeatOn;
    timeline::reset();
    for (int r = 0; r < reps; ++r) {
        walkOff.push_back(walking());
        walkOn.push_back(recorded(walking));
    }
    size_t events = timeline::events().size();
    timeline::reset();
    timed(); // reach the memo's steady state
    timed();
    for (int r = 0; r < reps; ++r) {
        repeatOff.push_back(timed());
        repeatOn.push_back(recorded(timed));
    }
    timeline::reset();

    const double off_ms = median(walkOff), on_ms = median(walkOn);
    double overhead = off_ms > 0.0 ? (on_ms - off_ms) / off_ms : 0.0;
    const double memoLoss = median(repeatOff) > 0.0
                                ? median(repeatOn) / median(repeatOff)
                                : 0.0;
    std::printf("%s (nnz=%zu), median of %d SpMVs per mode:\n",
                largest->name.c_str(), size_t(largest->matrix.nnz()),
                reps);
    std::printf("  walking, timeline off  %.3f ms/spmv\n", off_ms);
    std::printf("  walking, timeline on   %.3f ms/spmv  (%zu events "
                "recorded)\n",
                on_ms, events);
    std::printf("  recorder overhead      %+.1f%%\n", 100.0 * overhead);
    std::printf("  repeated, timeline off %.3f ms/spmv (replays the "
                "memo)\n",
                median(repeatOff));
    std::printf("  repeated, timeline on  %.3f ms/spmv (walks)\n",
                median(repeatOn));
    std::printf("  memo loss              %.2fx (reported, not gated)\n",
                memoLoss);
    if (overhead > 0.25) {
        std::printf("ERROR: timeline overhead above the 25%% gate\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = argc > 1 ? std::atoi(argv[1]) : 10;
    if (!replaySweep(reps))
        return 1;
    if (!timelineOverhead(reps))
        return 1;
    return 0;
}
