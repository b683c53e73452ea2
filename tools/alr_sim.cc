/**
 * @file
 * alr_sim: command-line driver for the Alrescha simulator.
 *
 * Load a matrix (Matrix Market file, a saved program image, or a
 * generator spec), run a kernel, and print the result summary plus the
 * full statistics dump.  Examples:
 *
 *   alr_sim --gen stencil3d:16 --kernel pcg
 *   alr_sim --matrix system.mtx --kernel symgs --omega 16
 *   alr_sim --gen rmat:10 --kernel bfs --source 3
 *   alr_sim --gen stencil2d:64 --kernel spmv --save prog.alr
 *   alr_sim --image prog.alr --kernel spmv
 *   alr_sim --gen banded:4096 --kernel pcg --rcm --stats
 *   alr_sim --gen stencil3d:24 --kernel pcg --timeline trace.json --report
 *   alr_sim --gen stencil3d:24 --kernel pcg --stats-interval 100000 --json
 *
 * In-process A/B: run the same kernel on the same matrix twice --
 * baseline flags vs baseline + overrides -- and print the attributed
 * diff (per-bucket cycle deltas, stat deltas, energy deltas):
 *
 *   alr_sim --gen stencil3d:24 --kernel pcg --ab "--omega 16"
 *   alr_sim --gen banded:4096 --kernel spmv --ab "--simd scalar" --json
 *   alr_sim --gen stencil2d:64 --kernel spmv --ab "--rcm" \
 *           --fail-on 'cycles>0.1%'
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_parse.hh"

#include "alrescha/accelerator.hh"
#include "alrescha/program_image.hh"
#include "alrescha/report.hh"
#include "alrescha/sim/diff.hh"
#include "alrescha/sim/profile.hh"
#include "alrescha/sim/replay.hh"
#include "kernels/eigen.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/version.hh"
#include "common/thread_pool.hh"
#include "common/timeline.hh"
#include "common/random.hh"
#include "kernels/graph.hh"
#include "sparse/generators.hh"
#include "sparse/mmio.hh"
#include "sparse/pattern_stats.hh"
#include "sparse/reorder.hh"

using namespace alr;
using namespace alr::cli;

namespace {

struct Options
{
    std::string matrixPath;
    std::string imagePath;
    std::string genSpec;
    std::string savePath;
    std::string timelinePath;
    std::string profilePath;
    std::string profileCsvPath;
    std::string profileFoldedPath;
    std::string kernel = "spmv";
    Index omega = 8;
    Index source = 0;
    bool rcm = false;
    SimdMode simdMode = SimdMode::Auto;
    bool dumpStats = false;
    bool json = false;
    bool report = false;
    long statsInterval = 0;
    int maxIterations = 500;
    int threads = 0;
    bool ab = false;          ///< --ab given (possibly empty overrides)
    std::string abOverrides;  ///< variant flag string
    std::string failOn;       ///< --fail-on rule list (A/B gate)
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: alr_sim [--matrix F.mtx | --image F.alr | --gen SPEC]\n"
        "               [--kernel spmv|symgs|pcg|bicgstab|gmres|\n"
        "                         bfs|sssp|pr|cc|eigen]\n"
        "               [--omega N] [--source V] [--rcm] [--stats] [--json]\n"
        "               [--report] [--timeline F.json] [--stats-interval N]\n"
        "               [--profile F.json] [--profile-csv F.csv]\n"
        "               [--profile-folded F.folded]\n"
        "               [--iters N] [--threads N]\n"
        "               [--save F.alr]\n"
        "               [--simd MODE] [--ab \"FLAGS\"] [--fail-on RULES]\n"
        "               [--version]\n"
        "  SPEC: stencil2d:N | stencil3d:N | banded:N | rmat:SCALE |\n"
        "        roadgrid:N | powerlaw:N\n"
        "  --stats           dump the hierarchical stat tree\n"
        "  --json            emit one JSON document on stdout\n"
        "  --report          utilization summary + profile hotspots\n"
        "  --timeline F      Perfetto-loadable cycle timeline\n"
        "  --stats-interval  run-granular stat snapshots every N cycles\n"
        "  --profile F       cycle-accounting profile (JSON)\n"
        "  --profile-csv F   per-block-row cause heatmap (CSV)\n"
        "  --profile-folded  flamegraph.pl-compatible folded stacks\n"
        "  --simd MODE       replay kernel ISA: auto (default; widest\n"
        "                    the CPU runs), scalar, sse2, avx2, avx512,\n"
        "                    neon; forced modes fall back down the chain\n"
        "                    with a warning when unavailable\n"
        "  --threads N       host pool size (1 to 1024): encode,\n"
        "                    convert, compile, the SpMV/SpMM functional\n"
        "                    passes and the levels of wide SymGS sweeps\n"
        "                    (default ALR_THREADS, else the core count;\n"
        "                    results are identical at any size)\n"
        "  --ab \"FLAGS\"      in-process A/B: rerun with FLAGS applied\n"
        "                    on top of the baseline flags (same matrix,\n"
        "                    same process) and print the attributed\n"
        "                    cycle/stat/energy diff; engine and kernel\n"
        "                    knobs only (--omega, --simd, --rcm,\n"
        "                    --iters, ...), no file I/O flags\n"
        "  --fail-on RULES   with --ab: exit 1 when the diff exceeds\n"
        "                    any rule of the comma list, as in\n"
        "                    alr_diff: METRIC>NUM[%%] with METRIC one\n"
        "                    of cycles, bytes, energy, stats, e.g.\n"
        "                    'cycles>0,stats>0.1%%'\n"
        "  --version         print build provenance and exit\n");
    std::exit(2);
}

void
printVersion()
{
    std::printf("alr_sim %s (simd build %s, runtime %s, "
                "omega specializations %s)\n",
                version::gitDescribe(), version::simdBuild(),
                replay::isaName(), replay::omegaSpecializations());
    std::exit(0);
}

CsrMatrix
generate(const std::string &spec)
{
    auto colon = spec.find(':');
    if (colon == std::string::npos)
        fatal("generator spec needs NAME:SIZE, got '%s'", spec.c_str());
    std::string name = spec.substr(0, colon);
    long size = parseInteger("generator size", spec.substr(colon + 1), 1,
                             std::numeric_limits<Index>::max());

    Rng rng(1234);
    if (name == "stencil2d")
        return gen::stencil2d(Index(size), Index(size), 5);
    if (name == "stencil3d")
        return gen::stencil3d(Index(size), Index(size), Index(size), 27);
    if (name == "banded")
        return gen::banded(Index(size), 12, 0.8, rng);
    if (name == "rmat")
        return gen::rmat(int(size), 8, rng);
    if (name == "roadgrid")
        return gen::roadGrid(Index(size), Index(size), 0.01, rng);
    if (name == "powerlaw")
        return gen::powerLawGraph(Index(size), 12, 0.9, rng, 0.6);
    fatal("unknown generator '%s'", name.c_str());
}

/**
 * Apply one flag vector to @p opt.  The main command line and the --ab
 * override string share this; overrides (@p variant) are restricted to
 * engine/kernel knobs -- flags that change file I/O, the input matrix,
 * or the report shape would make the two sides incomparable and are
 * rejected with a clear error instead of silently diverging.
 */
void
applyArgs(Options &opt, const std::vector<std::string> &args,
          bool variant)
{
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= args.size()) {
                if (variant)
                    fatal("--ab: flag '%s' needs a value", arg.c_str());
                usage();
            }
            return args[++i];
        };
        if (variant &&
            (arg == "--matrix" || arg == "--image" || arg == "--gen" ||
             arg == "--save" ||
             arg == "--timeline" || arg == "--profile" ||
             arg == "--profile-csv" || arg == "--profile-folded" ||
             arg == "--ab" || arg == "--fail-on" || arg == "--json" ||
             arg == "--stats" || arg == "--report" ||
             arg == "--stats-interval" || arg == "--version")) {
            fatal("--ab override '%s' not allowed: only engine/kernel "
                  "knobs may differ between the two sides",
                  arg.c_str());
        }
        if (arg == "--matrix") {
            opt.matrixPath = next();
        } else if (arg == "--image") {
            opt.imagePath = next();
        } else if (arg == "--gen") {
            opt.genSpec = next();
        } else if (arg == "--save") {
            opt.savePath = next();
        } else if (arg == "--kernel") {
            opt.kernel = next();
        } else if (arg == "--omega") {
            opt.omega = Index(parseInteger("--omega", next(), 1, kMaxOmega));
        } else if (arg == "--source") {
            opt.source = Index(parseInteger(
                "--source", next(), 0, std::numeric_limits<Index>::max()));
        } else if (arg == "--iters") {
            opt.maxIterations = int(
                parseInteger("--iters", next(), 1, kMaxCount));
        } else if (arg == "--threads") {
            opt.threads = int(parseInteger("--threads", next(), 1,
                                           kMaxThreads));
        } else if (arg == "--simd") {
            std::string mode = next();
            if (!replay::parseSimdMode(mode.c_str(), &opt.simdMode))
                fatal("unknown --simd mode '%s'", mode.c_str());
        } else if (arg == "--rcm") {
            opt.rcm = true;
        } else if (arg == "--stats") {
            opt.dumpStats = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--report") {
            opt.report = true;
        } else if (arg == "--timeline") {
            opt.timelinePath = next();
        } else if (arg == "--profile") {
            opt.profilePath = next();
        } else if (arg == "--profile-csv") {
            opt.profileCsvPath = next();
        } else if (arg == "--profile-folded") {
            opt.profileFoldedPath = next();
        } else if (arg == "--ab") {
            opt.ab = true;
            opt.abOverrides = next();
        } else if (arg == "--fail-on") {
            opt.failOn = next();
        } else if (arg == "--version") {
            printVersion();
        } else if (arg == "--stats-interval") {
            opt.statsInterval = parseInteger(
                "--stats-interval", next(), 1,
                std::numeric_limits<long>::max());
        } else {
            if (variant)
                fatal("--ab: unknown override flag '%s'", arg.c_str());
            usage();
        }
    }
}

/** Whitespace-split an --ab override string into flag tokens. */
std::vector<std::string>
tokenize(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    applyArgs(opt, args, false);
    int sources = !opt.matrixPath.empty() + !opt.imagePath.empty() +
                  !opt.genSpec.empty();
    if (sources != 1)
        usage();
    if (!opt.failOn.empty() && !opt.ab)
        fatal("--fail-on needs --ab (file-vs-file gating is alr_diff)");
    return opt;
}

bool
isGraphKernel(const Options &opt)
{
    return opt.kernel == "bfs" || opt.kernel == "sssp" ||
           opt.kernel == "pr" || opt.kernel == "cc";
}

/** AccelParams for one side of a run (shared by normal and A/B). */
AccelParams
paramsFrom(const Options &opt)
{
    AccelParams params;
    params.omega = opt.omega;
    // The replay ISA is bit-identical to the default, exposed for
    // timing the host-side replay cost in isolation.
    params.simdMode = opt.simdMode;
    return params;
}

/** Load @p a into @p acc through the kernel-appropriate path.
 *  @p symgsImage: the matrix came from a SymGs-layout program image. */
void
programAccelerator(Accelerator &acc, const CsrMatrix &a,
                   const Options &opt, bool symgsImage, bool fromImage)
{
    static const std::set<std::string> kKernels = {
        "spmv", "symgs", "pcg", "bicgstab", "gmres",
        "bfs",  "sssp",  "pr",  "cc",       "eigen"};
    if (!kKernels.count(opt.kernel))
        fatal("unknown kernel '%s'", opt.kernel.c_str());
    // Only SpMV runs on a rectangular matrix: the solvers, the smoother
    // and the graph kernels all need a square one.
    if (opt.kernel != "spmv" && a.rows() != a.cols())
        fatal("--kernel %s needs a square matrix, got %u x %u",
              opt.kernel.c_str(), a.rows(), a.cols());
    if ((opt.kernel == "bfs" || opt.kernel == "sssp") &&
        opt.source >= a.rows())
        fatal("--source %u is out of range for %u vertices", opt.source,
              a.rows());
    if (fromImage) {
        // An image serves only the kernels its layout was built for:
        // the SymGS layout programs no graph tables, and the plain
        // layout (an spmv or graph image) no SymGS tables.
        if (symgsImage && isGraphKernel(opt))
            fatal("--kernel %s needs a graph image; '%s' is a symgs/pcg "
                  "image", opt.kernel.c_str(), opt.imagePath.c_str());
        if (!symgsImage && (opt.kernel == "symgs" || opt.kernel == "pcg"))
            fatal("--kernel %s needs a symgs/pcg image; '%s' has the "
                  "plain layout", opt.kernel.c_str(),
                  opt.imagePath.c_str());
        if (symgsImage)
            acc.loadPde(a);
        else if (isGraphKernel(opt))
            acc.loadGraph(a.transposed()); // image stored adj^T
        else
            acc.loadSpmvOnly(a);
        return;
    }
    if (isGraphKernel(opt)) {
        acc.loadGraph(a);
    } else if (opt.kernel == "spmv" || opt.kernel == "bicgstab" ||
               opt.kernel == "gmres" || opt.kernel == "eigen") {
        acc.loadSpmvOnly(a);
    } else {
        // The SymGS layout stores the diagonal apart and divides by it.
        DenseVector diag = a.diagonal();
        for (Index r = 0; r < a.rows(); ++r)
            if (diag[r] == 0.0)
                fatal("--kernel %s needs a non-zero diagonal; row %u "
                      "has none", opt.kernel.c_str(), r);
        acc.loadPde(a);
    }
}

/** Run opt.kernel once on the programmed accelerator; @p summary gets
 *  the one-line human result. */
void
runKernelOnce(Accelerator &acc, const CsrMatrix &a, const Options &opt,
              std::string *summary)
{
    char line[160];
    line[0] = '\0';
    if (opt.kernel == "spmv") {
        DenseVector x(a.cols(), 1.0);
        DenseVector y = acc.spmv(x);
        Value checksum = 0.0;
        for (Value v : y)
            checksum += v;
        std::snprintf(line, sizeof(line), "spmv checksum %.6g",
                      checksum);
    } else if (opt.kernel == "symgs") {
        DenseVector b(a.rows(), 1.0), x(a.rows(), 0.0);
        acc.symgsSweep(b, x, GsSweep::Symmetric);
        std::snprintf(line, sizeof(line),
                      "symgs sweep done, x[0] = %.6g", x[0]);
    } else if (opt.kernel == "pcg") {
        DenseVector b(a.rows(), 1.0);
        PcgOptions po;
        po.maxIterations = opt.maxIterations;
        PcgResult res = acc.pcg(b, po);
        std::snprintf(line, sizeof(line),
                      "pcg: %s in %d iterations, residual %.3e",
                      res.converged ? "converged" : "NOT converged",
                      res.iterations, res.relResidual);
    } else if (opt.kernel == "bfs") {
        GraphResult res = acc.bfs(opt.source);
        Index reached = 0;
        for (Value d : res.values)
            reached += d != kInf;
        std::snprintf(line, sizeof(line), "bfs: %u reached in %d rounds",
                      reached, res.rounds);
    } else if (opt.kernel == "sssp") {
        GraphResult res = acc.sssp(opt.source);
        std::snprintf(line, sizeof(line), "sssp: %d rounds", res.rounds);
    } else if (opt.kernel == "pr") {
        GraphResult res = acc.pagerank();
        std::snprintf(line, sizeof(line), "pagerank: %d rounds",
                      res.rounds);
    } else if (opt.kernel == "cc") {
        GraphResult res = acc.connectedComponents();
        std::set<long> roots;
        for (Value v : res.values)
            roots.insert(long(v));
        std::snprintf(line, sizeof(line), "components: %zu in %d rounds",
                      roots.size(), res.rounds);
    } else if (opt.kernel == "bicgstab") {
        KrylovResult res = acc.bicgstab(DenseVector(a.rows(), 1.0));
        std::snprintf(line, sizeof(line),
                      "bicgstab: %s in %d iterations, residual %.3e",
                      res.converged ? "converged" : "NOT converged",
                      res.iterations, res.relResidual);
    } else if (opt.kernel == "gmres") {
        KrylovResult res = acc.gmres(DenseVector(a.rows(), 1.0));
        std::snprintf(line, sizeof(line),
                      "gmres: %s in %d iterations, residual %.3e",
                      res.converged ? "converged" : "NOT converged",
                      res.iterations, res.relResidual);
    } else if (opt.kernel == "eigen") {
        auto fn = [&acc](const DenseVector &x) { return acc.spmv(x); };
        LanczosResult res = lanczosWith(fn, a.rows());
        std::snprintf(line, sizeof(line),
                      "lanczos: lambda in [%.6g, %.6g], cond %.3g "
                      "(%d steps)",
                      res.lambdaMin, res.lambdaMax, res.conditionNumber,
                      res.steps);
    } else {
        fatal("unknown kernel '%s'", opt.kernel.c_str());
    }
    if (summary)
        *summary = line;
}

/** The --report utilization summary as a human-readable table. */
void
printUtilization(const Accelerator &acc)
{
    UtilizationReport u = acc.utilization();
    std::printf("\nutilization:\n");
    std::printf("  alu occupancy      %.1f%%\n", 100.0 * u.aluOccupancy);
    std::printf("  reduce tree        %.1f%%\n", 100.0 * u.treeOccupancy);
    std::printf("  memory bandwidth   %.1f%%\n",
                100.0 * u.bandwidthUtilization);
    std::printf("  cache hit rate     %.1f%%\n", 100.0 * u.cacheHitRate);
    std::printf("  cache port busy    %.1f%%\n",
                100.0 * u.cacheTimeFraction);
    std::printf("  sequential         %.1f%% of flops, %.1f%% of cycles\n",
                100.0 * u.sequentialOpFraction,
                100.0 * u.sequentialCycleFraction);
    std::printf("  reconfig hidden    %.1f%%\n",
                100.0 * u.reconfigHiddenFraction);
    std::printf("  roofline           %.3f flop/byte, %.2f of %.2f "
                "attainable GFLOP/s (peak %.2f)\n",
                u.arithmeticIntensity, u.achievedGflops,
                u.attainableGflops, u.peakGflops);
}

/** The --report hotspot table: hottest cycle-accounting buckets. */
void
printHotspots(const Accelerator &acc, size_t k)
{
    std::vector<profile::BucketRow> hot = profile::hotspots(k);
    if (hot.empty())
        return;
    uint64_t total = acc.engine().totalCycles();
    std::printf("\nhotspots (top %zu buckets):\n", hot.size());
    std::printf("  %-8s %9s %-17s %12s %6s %12s\n", "dp", "block_row",
                "cause", "cycles", "%", "bytes");
    for (const profile::BucketRow &r : hot) {
        char row[24];
        if (r.blockRow < 0)
            std::snprintf(row, sizeof(row), "run");
        else
            std::snprintf(row, sizeof(row), "%lld",
                          (long long)r.blockRow);
        std::printf("  %-8s %9s %-17s %12llu %5.1f%% %12llu\n",
                    toString(r.dp), row, profile::toString(r.cause),
                    (unsigned long long)r.cycles,
                    total ? 100.0 * double(r.cycles) / double(total) : 0.0,
                    (unsigned long long)r.bytes);
    }
}

void
printReport(const Accelerator &acc)
{
    AccelReport r = acc.report();
    std::printf("\ncycles               %llu\n",
                (unsigned long long)r.cycles);
    std::printf("time                 %.3f us\n", r.seconds * 1e6);
    std::printf("DRAM traffic         %.1f KB\n",
                r.bytesFromMemory / 1024.0);
    std::printf("bandwidth utilized   %.1f%%\n",
                100.0 * r.bandwidthUtilization);
    std::printf("sequential ops       %.1f%%\n",
                100.0 * r.sequentialOpFraction);
    std::printf("reconfigurations     %.0f\n", r.reconfigurations);
    std::printf("energy               %.3f uJ (dram %.1f%%, sram %.1f%%, "
                "compute %.1f%%, reconfig %.1f%%, static %.1f%%)\n",
                r.energyJoules * 1e6, 100.0 * r.energy.dram / r.energyJoules,
                100.0 * r.energy.sram / r.energyJoules,
                100.0 * r.energy.compute / r.energyJoules,
                100.0 * r.energy.reconfig / r.energyJoules,
                100.0 * r.energy.staticEnergy / r.energyJoules);
}

/**
 * One side of the A/B comparison: fresh accelerator from @p opt's
 * params, the kernel run on (a per-side copy of) the shared matrix,
 * captured as the full-fat report document -- stats, utilization, and
 * cycle-accounting profile always embedded, so the diff can attribute
 * every delta.  The profiler is reset around each side so buckets
 * never bleed across.
 */
std::string
runAbSide(const CsrMatrix &base, const Options &opt)
{
    profile::reset();
    profile::setEnabled(true);
    CsrMatrix a = base;
    if (opt.rcm)
        a = a.permuted(reverseCuthillMcKee(a));
    Accelerator acc(paramsFrom(opt));
    programAccelerator(acc, a, opt, /*symgsImage=*/false,
                       /*fromImage=*/false);
    runKernelOnce(acc, a, opt, nullptr);

    SimReportOptions ro;
    ro.kernel = opt.kernel;
    ro.omega = opt.omega;
    ro.simdMode = opt.simdMode;
    ro.utilization = true;
    ro.stats = true;
    std::ostringstream doc;
    writeSimReportJson(doc, acc, ro);
    profile::setEnabled(false);
    profile::reset();
    return doc.str();
}

/** The --ab driver: baseline vs baseline+overrides, attributed diff. */
int
runAb(const Options &baseline)
{
    if (!baseline.savePath.empty() ||
        !baseline.timelinePath.empty() ||
        !baseline.profilePath.empty() ||
        !baseline.profileCsvPath.empty() ||
        !baseline.profileFoldedPath.empty() ||
        baseline.statsInterval > 0)
        fatal("--ab cannot be combined with file-output flags "
              "(--save/--timeline/--profile*/--stats-interval)");
    if (!baseline.imagePath.empty())
        fatal("--ab needs a rebuildable matrix source (--gen or "
              "--matrix), not a pre-built --image");

    Options variant = baseline;
    variant.ab = false;
    applyArgs(variant, tokenize(baseline.abOverrides), true);

    CsrMatrix a = !baseline.matrixPath.empty()
                      ? CsrMatrix::fromCoo(
                            readMatrixMarketFile(baseline.matrixPath))
                      : generate(baseline.genSpec);

    // Baseline --rcm permutes inside runAbSide per side, so both sides
    // see the same raw matrix here.
    std::string oldDoc = runAbSide(a, baseline);
    std::string newDoc = runAbSide(a, variant);

    json::Parsed po = json::parse(oldDoc);
    json::Parsed pn = json::parse(newDoc);
    if (!po || !pn)
        fatal("internal: A/B report document failed to parse: %s",
              (po ? pn.error : po.error).c_str());

    diff::Document d;
    std::string err;
    if (!diff::diff(po.value, pn.value, &d, &err))
        fatal("A/B diff failed: %s", err.c_str());

    if (baseline.json)
        diff::writeJson(std::cout, d);
    else {
        std::printf("A/B: baseline vs \"%s\"\n",
                    baseline.abOverrides.c_str());
        diff::writeText(std::cout, d);
    }
    std::cout.flush();

    if (!d.conserved) {
        std::fprintf(stderr,
                     "alr_sim: A/B conservation violated (bucket "
                     "deltas do not sum to the cycle delta)\n");
        return 3;
    }
    if (!baseline.failOn.empty()) {
        std::vector<diff::FailRule> rules;
        if (!diff::parseFailRules(baseline.failOn, &rules, &err))
            fatal("%s", err.c_str());
        if (std::string why = diff::gate(d, rules); !why.empty()) {
            std::fprintf(stderr, "alr_sim: A/B %s\n", why.c_str());
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    // Host pool size: --threads beats ALR_THREADS beats hardware
    // concurrency.
    if (opt.threads > 0)
        ThreadPool::setGlobalThreadCount(opt.threads);

    if (opt.ab)
        return runAb(opt);

    // Arm the timeline recorder before any kernel runs so the whole
    // modeled execution lands in the timeline.
    if (!opt.timelinePath.empty())
        timeline::setEnabled(true);

    // Likewise the cycle-accounting profiler: any profile export, or a
    // --report (which prints the hotspot table), records every run.
    bool profiling = !opt.profilePath.empty() ||
                     !opt.profileCsvPath.empty() ||
                     !opt.profileFoldedPath.empty() || opt.report;
    if (profiling)
        profile::setEnabled(true);

    bool isGraph = isGraphKernel(opt);

    Accelerator acc(paramsFrom(opt));

    // Periodic stat snapshots: the engine samples after each run once
    // the cumulative cycle count crosses an interval boundary.
    std::unique_ptr<stats::StatSnapshotter> snap;
    if (opt.statsInterval > 0) {
        snap = std::make_unique<stats::StatSnapshotter>(
            acc.engine().statGroup(), uint64_t(opt.statsInterval));
        snap->sampleNow(0);
        acc.engine().setSnapshotter(snap.get());
    }

    CsrMatrix a;
    bool fromImage = !opt.imagePath.empty();
    bool symgsImage = false;
    if (fromImage) {
        // Pre-built program image: decode the matrix back for the
        // host-side checks, then reload through the normal path so all
        // kernels are available.
        ProgramImage image = loadProgramImageFile(opt.imagePath);
        a = image.matrix.decode();
        symgsImage = image.matrix.layout() == LdLayout::SymGs;
        if (!opt.json)
            std::printf("program image: omega=%u, %zu tables, "
                        "%zu blocks\n",
                        image.matrix.omega(), image.tables.size(),
                        image.matrix.blocks().size());
    } else {
        a = !opt.matrixPath.empty()
                ? CsrMatrix::fromCoo(readMatrixMarketFile(opt.matrixPath))
                : generate(opt.genSpec);
        if (opt.rcm) {
            auto perm = reverseCuthillMcKee(a);
            a = a.permuted(perm);
            inform("applied RCM reordering");
        }
    }
    programAccelerator(acc, a, opt, symgsImage, fromImage);

    if (!opt.json) {
        PatternStats ps = analyzePattern(a, opt.omega);
        std::printf("matrix: %u x %u, %u nnz, bandwidth %u, block fill "
                    "%.3f\n",
                    a.rows(), a.cols(), a.nnz(), ps.bandwidth,
                    ps.blockDensity);
    }

    if (!opt.savePath.empty()) {
        ProgramImage image =
            isGraph ? buildGraphProgram(a, opt.omega)
            : opt.kernel == "spmv"
                ? buildSpmvProgram(a, opt.omega)
                : buildPdeProgram(a, opt.omega);
        saveProgramImageFile(opt.savePath, image);
        if (!opt.json)
            std::printf("saved program image to %s\n",
                        opt.savePath.c_str());
    }

    std::string summary;
    runKernelOnce(acc, a, opt, &summary);
    if (!opt.json && !summary.empty())
        std::printf("%s\n", summary.c_str());

    // Close the time series with the end-of-run state.
    if (snap)
        snap->sampleNow(acc.engine().totalCycles());

    if (opt.json) {
        std::fflush(stdout); // keep printf output ahead of the document
        SimReportOptions ro;
        ro.kernel = opt.kernel;
        ro.omega = opt.omega;
        ro.simdMode = opt.simdMode;
        ro.utilization = opt.report;
        ro.stats = opt.dumpStats;
        ro.snapshots = snap.get();
        writeSimReportJson(std::cout, acc, ro);
        std::cout.flush();
    } else {
        printReport(acc);
        if (opt.report) {
            printUtilization(acc);
            printHotspots(acc, 10);
        }
        if (opt.dumpStats) {
            std::printf("\n");
            acc.engine().statGroup().dump(std::cout);
        }
        if (snap) {
            std::printf("\n");
            std::cout.flush();
            snap->dumpCsv(std::cout);
        }
    }

    if (profiling) {
        profile::ExportMeta meta{opt.kernel, opt.omega,
                                 acc.engine().totalCycles(), opt.simdMode};
        auto writeTo = [&](const std::string &path, auto emit,
                           const char *what) {
            if (path.empty())
                return;
            std::ofstream pf(path);
            if (!pf)
                fatal("cannot create %s file '%s'", what, path.c_str());
            emit(pf);
            if (!opt.json)
                std::printf("%s written to %s\n", what, path.c_str());
        };
        writeTo(opt.profilePath,
                [&](std::ostream &os) { profile::exportJson(os, meta); },
                "profile");
        writeTo(opt.profileCsvPath,
                [&](std::ostream &os) { profile::exportCsv(os); },
                "profile heatmap");
        writeTo(opt.profileFoldedPath,
                [&](std::ostream &os) { profile::exportFolded(os); },
                "folded stacks");
    }

    if (!opt.timelinePath.empty()) {
        timeline::setEnabled(false);
        std::ofstream tf(opt.timelinePath);
        if (!tf)
            fatal("cannot create timeline file '%s'",
                  opt.timelinePath.c_str());
        timeline::exportChromeTrace(tf);
        if (!opt.json)
            std::printf("timeline written to %s (%llu events, %llu "
                        "dropped)\n",
                        opt.timelinePath.c_str(),
                        (unsigned long long)timeline::events().size(),
                        (unsigned long long)timeline::dropped());
    }
    return 0;
}
