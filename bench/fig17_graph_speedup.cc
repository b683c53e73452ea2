/**
 * @file
 * Figure 17: BFS / SSSP / PageRank speedup over the CPU baseline for
 * the GPU (Gunrock-like), GraphR, and Alrescha on the graph suite.
 *
 * Alrescha runs for real on the cycle-level engine with
 * frontier-driven rounds (Table 1's "frontier vector"); the
 * CPU/GPU/GraphR models are work-efficient traversals too (each edge
 * charged O(1) times for BFS/SSSP, dense rounds for PR), so nobody is
 * handicapped with Bellman-Ford-style dense rounds.
 *
 * BFS and SSSP start from each graph's highest out-degree vertex
 * (lowest id on ties), a rule fixed independently of the results.  A
 * traversal that reaches under 1% of the vertices measures nothing, so
 * the bench fails on one.
 *
 * Writes BENCH_graph.json: one row per dataset and kernel, named
 * "<dataset>/<kernel>", whose modeled cycles, bytes and stats (the
 * round count included) alr_diff gates exactly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/cpu_model.hh"
#include "baselines/gpu_model.hh"
#include "baselines/graphr.hh"
#include "bench/bench_util.hh"
#include "kernels/graph.hh"

using namespace alr;
using namespace alr::bench;

namespace {

struct KernelRow
{
    std::string kernel;
    /** Row-name suffix in BENCH_graph.json. */
    const char *key;
    std::vector<double> gpu, graphr, alrescha;
};

/** The traversal source: the highest out-degree vertex, lowest id on
 *  ties. */
Index
traversalSource(const CsrMatrix &adj)
{
    const std::vector<Index> degree = outDegrees(adj);
    return Index(std::max_element(degree.begin(), degree.end()) -
                 degree.begin());
}

} // namespace

int
main()
{
    std::printf("== Figure 17: graph-kernel speedups over the CPU "
                "baseline ==\n\n");

    CpuModel cpu;
    GpuModel gpu;
    GraphRModel graphr;

    KernelRow bfsRow{"BFS", "bfs", {}, {}, {}};
    KernelRow ssspRow{"SSSP", "sssp", {}, {}, {}};
    KernelRow prRow{"PR", "pr", {}, {}, {}};

    Table table({"dataset", "kernel", "GPU x", "GraphR x",
                 "Alrescha x"});
    json::Value json_rows = json::Value::array();

    PageRankOptions prOpts;
    prOpts.maxIterations = 30;
    prOpts.tolerance = 1e-7;

    bool degenerate = false;
    for (const Dataset &d : graphSuite()) {
        Accelerator acc;
        acc.loadGraph(d.matrix);
        const Index source = traversalSource(d.matrix);
        // A traversal must reach at least 1% of the vertices.
        auto checkReach = [&](const char *kernel, const GraphResult &r) {
            const size_t reached = size_t(std::count_if(
                r.values.begin(), r.values.end(),
                [](Value v) { return std::isfinite(v); }));
            if (reached * 100 < r.values.size()) {
                std::fprintf(stderr,
                             "fig17: %s on %s from vertex %u reaches %zu "
                             "of %zu vertices (under 1%%)\n",
                             kernel, d.name.c_str(), source, reached,
                             r.values.size());
                degenerate = true;
            }
        };

        // Run one kernel from reset stats, and tabulate it against the
        // baselines' seconds for the same round count.
        auto measure = [&](KernelRow &row, auto kernel, auto seconds) {
            acc.resetStats();
            auto start = std::chrono::steady_clock::now();
            GraphResult r = kernel();
            double wall_ms = wallMsSince(start);
            double alr_t = acc.engine().seconds();
            double cpu_t = seconds(cpu, r.rounds);
            double gpu_t = seconds(gpu, r.rounds);
            double gr_t = seconds(graphr, r.rounds);
            table.addRow({d.name, row.kernel, fmt(cpu_t / gpu_t, 1),
                          fmt(cpu_t / gr_t, 1), fmt(cpu_t / alr_t, 1)});
            row.gpu.push_back(cpu_t / gpu_t);
            row.graphr.push_back(cpu_t / gr_t);
            row.alrescha.push_back(cpu_t / alr_t);

            json::Value stats = modeledStats(acc);
            stats.set("rounds", r.rounds);
            json::Value j = json::Value::object();
            j.set("name", d.name + "/" + row.key)
                .set("suite", "graph")
                .set("wall_ms", wall_ms)
                .set("cycles", acc.engine().totalCycles())
                .set("bytes_streamed", acc.engine().memory().bytesStreamed())
                .set("gpu_speedup", cpu_t / gpu_t)
                .set("graphr_speedup", cpu_t / gr_t)
                .set("alrescha_speedup", cpu_t / alr_t)
                .set("stats", std::move(stats));
            json_rows.append(std::move(j));
            return r;
        };
        checkReach("BFS", measure(
            bfsRow, [&] { return acc.bfs(source); },
            [&](const auto &m, int rounds) {
                return m.bfsSeconds(d.matrix, rounds);
            }));
        checkReach("SSSP", measure(
            ssspRow, [&] { return acc.sssp(source); },
            [&](const auto &m, int rounds) {
                return m.ssspSeconds(d.matrix, rounds);
            }));
        measure(
            prRow, [&] { return acc.pagerank(prOpts); },
            [&](const auto &m, int rounds) {
                return m.pagerankSeconds(d.matrix, rounds);
            });
    }
    table.print();

    std::printf("\nGeometric means over the suite:\n");
    Table summary({"kernel", "GPU x", "GraphR x", "Alrescha x"});
    json::Value geo = json::Value::object();
    for (const KernelRow *row : {&bfsRow, &ssspRow, &prRow}) {
        summary.addRow({row->kernel, fmt(geoMean(row->gpu), 1),
                        fmt(geoMean(row->graphr), 1),
                        fmt(geoMean(row->alrescha), 1)});
        geo.set(row->key, geoMean(row->alrescha));
    }
    summary.print();

    json::Value root = benchDocument("fig17_graph_speedup");
    root.set("datasets", std::move(json_rows))
        .set("geo_mean_speedup", std::move(geo));
    writeJsonFile("BENCH_graph.json", root);

    std::printf("\npaper: Alrescha averages 15.7x (BFS), 7.7x (SSSP),\n"
                "27.6x (PR) over the CPU, ahead of both the GPU and\n"
                "GraphR on the same round counts.\n");
    return degenerate ? 1 : 0;
}
