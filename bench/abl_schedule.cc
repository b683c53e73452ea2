/**
 * @file
 * Schedule-compiler ablation (ISSUE 2): wall-clock cost of simulating a
 * long PCG solve with the per-iteration config-table interpreter versus
 * the compile-once execution schedule.  Both modes produce bit-identical
 * results, cycles, and stats (enforced by test_schedule); this harness
 * measures only how fast the simulator itself runs, which is what bounds
 * every iterative experiment in bench/.
 *
 * Part two: replay of the compiled schedule on the three largest
 * fig18 datasets under every --simd mode the machine can actually run.
 * Same bit-identity contract across all engines, with a hard failure
 * if results, cycles, or stat dumps diverge.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "alrescha/sim/replay.hh"
#include "bench/bench_util.hh"
#include "common/random.hh"
#include "common/timeline.hh"
#include "sparse/generators.hh"

using namespace alr;
using namespace alr::bench;

namespace {

struct Run
{
    double wall_ms = 0.0;
    double load_ms = 0.0;
    PcgResult result;
    uint64_t cycles = 0;
};

Run
solve(const CsrMatrix &a, const PcgOptions &opts, bool use_schedule)
{
    AccelParams params;
    params.useSchedule = use_schedule;
    params.engineThreads = 1; // single-threaded functional pass
    Accelerator acc(params);

    auto t0 = std::chrono::steady_clock::now();
    acc.loadPde(a);
    Run r;
    r.load_ms = wallMsSince(t0);

    DenseVector b(a.rows(), 1.0);
    auto t1 = std::chrono::steady_clock::now();
    r.result = acc.pcg(b, opts);
    r.wall_ms = wallMsSince(t1);
    r.cycles = acc.report().cycles;
    return r;
}

std::string
statDump(Accelerator &acc)
{
    std::ostringstream os;
    acc.engine().statGroup().dump(os);
    return os.str();
}

AccelParams
spmvParams(bool use_schedule, SimdMode mode)
{
    AccelParams p;
    p.useSchedule = use_schedule;
    p.simdMode = mode;
    p.engineThreads = 1; // single-threaded functional pass
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
 * false on any divergence across all engines.
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
        Accelerator interp(spmvParams(false, SimdMode::Auto));
        std::vector<std::unique_ptr<Accelerator>> accs;
        for (SimdMode m : modes)
            accs.push_back(
                std::make_unique<Accelerator>(spmvParams(true, m)));
        interp.loadSpmvOnly(d.matrix);
        for (auto &acc : accs)
            acc->loadSpmvOnly(d.matrix);

        DenseVector x(d.matrix.cols());
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = Value(i % 23) - 11.0;

        // Bit-identity gate before timing anything: one run through
        // each engine must agree on the result vector, the modeled
        // cycles, and the entire serialized stat dump.
        DenseVector yi = interp.spmv(x);
        auto diverges = [&](Accelerator &acc) {
            return yi != acc.spmv(x) ||
                   interp.report().cycles != acc.report().cycles ||
                   statDump(interp) != statDump(acc);
        };
        bool diverged = false;
        for (auto &acc : accs)
            diverged = diverges(*acc) || diverged;
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
 * Timeline recorder overhead (ISSUE 4 acceptance: <= 5% wall clock):
 * timed SpMV replays on the largest fig18 dataset with the recorder
 * off vs on.  The engine coalesces spans per data-path segment, so an
 * SpMV run emits a handful of events -- the expected overhead is well
 * under 1%; the hard gate is generous because two short timed loops on
 * a shared CI machine can jitter past the headline bound on their own.
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

    Accelerator acc(spmvParams(true, SimdMode::Auto));
    acc.loadSpmvOnly(largest->matrix);
    DenseVector x(largest->matrix.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 23) - 11.0;
    acc.spmv(x); // warm the schedule cache

    auto time = [&] {
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r)
            acc.spmv(x);
        return wallMsSince(t0) / reps;
    };
    double off_ms = time();
    timeline::reset();
    timeline::setEnabled(true);
    double on_ms = time();
    timeline::setEnabled(false);
    size_t events = timeline::events().size();
    timeline::reset();

    double overhead = off_ms > 0.0 ? (on_ms - off_ms) / off_ms : 0.0;
    std::printf("%s (nnz=%zu), %d SpMV replays per mode:\n",
                largest->name.c_str(), size_t(largest->matrix.nnz()),
                reps);
    std::printf("  timeline off  %.3f ms/spmv\n", off_ms);
    std::printf("  timeline on   %.3f ms/spmv  (%zu events recorded)\n",
                on_ms, events);
    std::printf("  overhead      %+.1f%%\n", 100.0 * overhead);
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
    // stencil2d keeps the diagonal blocks dense enough that the SymGS
    // sweep dominates -- the interpreter's worst case.
    int side = argc > 1 ? std::atoi(argv[1]) : 64;
    int iterations = argc > 2 ? std::atoi(argv[2]) : 120;
    CsrMatrix a = gen::stencil2d(side, side);

    PcgOptions opts;
    opts.maxIterations = iterations;
    opts.tolerance = 1e-30; // run the full iteration budget

    std::printf("== Ablation: interpreter vs compiled schedule ==\n\n");
    std::printf("matrix: stencil2d %dx%d (n=%u, nnz=%zu), PCG %d "
                "iterations, 1 thread\n\n",
                side, side, a.rows(), size_t(a.nnz()), iterations);

    Run interp = solve(a, opts, false);
    Run sched = solve(a, opts, true);

    Table table({"mode", "pcg wall ms", "ms/iter", "load ms",
                 "modeled cycles"});
    table.addRow({"interpreter", fmt(interp.wall_ms, 1),
                  fmt(interp.wall_ms / iterations, 3),
                  fmt(interp.load_ms, 1), std::to_string(interp.cycles)});
    table.addRow({"schedule", fmt(sched.wall_ms, 1),
                  fmt(sched.wall_ms / iterations, 3),
                  fmt(sched.load_ms, 1), std::to_string(sched.cycles)});
    table.print();

    double speedup = interp.wall_ms / sched.wall_ms;
    std::printf("\nschedule speedup over interpreter: %.2fx\n", speedup);

    // The equivalence contract is test-enforced; double-check the
    // headline numbers here anyway so a CI run of this bench alone
    // cannot silently report a speedup on diverging simulations.
    bool same = interp.result.x == sched.result.x &&
                interp.result.iterations == sched.result.iterations &&
                interp.cycles == sched.cycles;
    if (!same) {
        std::printf("ERROR: interpreter and schedule runs diverged\n");
        return 1;
    }
    std::printf("results, iterations, and cycle counts identical\n");

    int reps = argc > 3 ? std::atoi(argv[3]) : 10;
    if (!replaySweep(reps))
        return 1;
    if (!timelineOverhead(reps))
        return 1;
    return 0;
}
