/**
 * @file
 * Figure 19: Alrescha's energy-consumption improvement over the CPU
 * and GPU baselines for SpMV across both suites.
 *
 * Also writes BENCH_energy.json: one row per dataset with the measured
 * cycles/bytes, the modeled-counter stats sub-object, and the full
 * per-component EnergyBreakdown (joules), so the paper's fig 19
 * headline -- energy -- is regression-locked and diffable with
 * tools/alr_diff exactly like cycles and bytes.
 */

#include <chrono>
#include <cstdio>

#include "baselines/cpu_model.hh"
#include "baselines/gpu_model.hh"
#include "bench/bench_util.hh"

using namespace alr;
using namespace alr::bench;

namespace {

/** The per-component breakdown as a BENCH row sub-object (joules). */
json::Value
energyJson(const EnergyBreakdown &e)
{
    json::Value out = json::Value::object();
    out.set("dram", e.dram)
        .set("sram", e.sram)
        .set("compute", e.compute)
        .set("reconfig", e.reconfig)
        .set("static", e.staticEnergy)
        .set("total", e.total());
    return out;
}

void
runSuite(const std::vector<Dataset> &suite, const char *label,
         std::vector<double> &vsCpu, std::vector<double> &vsGpu,
         json::Value &jsonRows)
{
    CpuModel cpu;
    GpuModel gpu;
    Accelerator acc;

    std::printf("-- %s datasets --\n", label);
    Table table({"dataset", "Alrescha uJ", "GPU uJ", "CPU uJ",
                 "vs GPU x", "vs CPU x"});
    for (const Dataset &d : suite) {
        auto start = std::chrono::steady_clock::now();
        alreschaSpmvSeconds(d.matrix, acc);
        double wall_ms = wallMsSince(start);
        AccelReport r = acc.report();
        double alr_e = r.energyJoules;
        double gpu_e = gpu.energyJoules(gpu.spmvSeconds(d.matrix));
        double cpu_e = cpu.energyJoules(cpu.spmvSeconds(d.matrix));

        vsGpu.push_back(gpu_e / alr_e);
        vsCpu.push_back(cpu_e / alr_e);
        table.addRow({d.name, fmt(alr_e * 1e6, 1), fmt(gpu_e * 1e6, 1),
                      fmt(cpu_e * 1e6, 1), fmt(gpu_e / alr_e, 1),
                      fmt(cpu_e / alr_e, 1)});

        json::Value row = json::Value::object();
        row.set("name", d.name)
            .set("suite", label)
            .set("wall_ms", wall_ms)
            .set("cycles", acc.engine().totalCycles())
            .set("bytes_streamed", acc.engine().memory().bytesStreamed())
            .set("alrescha_uj", alr_e * 1e6)
            .set("gpu_uj", gpu_e * 1e6)
            .set("cpu_uj", cpu_e * 1e6)
            .set("vs_gpu", gpu_e / alr_e)
            .set("vs_cpu", cpu_e / alr_e)
            .set("energy", energyJson(r.energy))
            .set("stats", modeledStats(acc));
        jsonRows.append(std::move(row));
    }
    table.print();
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("== Figure 19: energy improvement of Alrescha over CPU "
                "and GPU (SpMV) ==\n\n");

    std::vector<double> vsCpu, vsGpu;
    json::Value jsonRows = json::Value::array();
    runSuite(scientificSuite(), "scientific", vsCpu, vsGpu, jsonRows);
    runSuite(graphSuite(), "graph", vsCpu, vsGpu, jsonRows);

    std::printf("Geometric means: %sx vs GPU, %sx vs CPU\n",
                fmt(geoMean(vsGpu), 1).c_str(),
                fmt(geoMean(vsCpu), 1).c_str());

    json::Value root = benchDocument("fig19_energy");
    root.set("kernel", "spmv")
        .set("datasets", std::move(jsonRows))
        .set("geo_mean_vs_gpu", geoMean(vsGpu))
        .set("geo_mean_vs_cpu", geoMean(vsCpu));
    writeJsonFile("BENCH_energy.json", root);

    std::printf("\npaper: 14x less energy than the GPU and 74x less than\n"
                "the CPU on average, driven by the small reconfigurable\n"
                "hardware and metadata-free streaming.\n");
    return 0;
}
