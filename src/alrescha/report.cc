#include "alrescha/report.hh"

#include "alrescha/sim/profile.hh"
#include "alrescha/sim/replay.hh"
#include "common/json.hh"
#include "common/version.hh"

namespace alr {

void
writeSimReportJson(std::ostream &os, const Accelerator &acc,
                   const SimReportOptions &opt)
{
    AccelReport r = acc.report();
    json::Writer w(os);
    w.beginObject()
        .member("schema_version", version::kJsonSchemaVersion)
        .member("kernel", opt.kernel)
        .member("omega", opt.omega)
        .member("cycles", r.cycles)
        .member("seconds", r.seconds)
        .member("dram_bytes", r.bytesFromMemory)
        .member("bandwidth_utilization", r.bandwidthUtilization)
        .member("sequential_op_fraction", r.sequentialOpFraction)
        .member("reconfigurations", r.reconfigurations)
        .member("energy_joules", r.energyJoules)
        .key("energy_breakdown")
        .beginObject(true)
        .member("dram", r.energy.dram)
        .member("sram", r.energy.sram)
        .member("compute", r.energy.compute)
        .member("reconfig", r.energy.reconfig)
        .member("static", r.energy.staticEnergy)
        .end()
        .key("version");
    replay::writeVersionJson(w, opt.simdMode);
    if (profile::enabled()) {
        w.key("profile");
        profile::exportJson(w, {opt.kernel, opt.omega,
                                acc.engine().totalCycles(), opt.simdMode});
    }
    if (opt.utilization) {
        UtilizationReport u = acc.utilization();
        w.key("utilization")
            .beginObject()
            .member("cycles", u.cycles)
            .member("alu_occupancy", u.aluOccupancy)
            .member("tree_occupancy", u.treeOccupancy)
            .member("bandwidth_utilization", u.bandwidthUtilization)
            .member("cache_hit_rate", u.cacheHitRate)
            .member("cache_time_fraction", u.cacheTimeFraction)
            .member("sequential_op_fraction", u.sequentialOpFraction)
            .member("sequential_cycle_fraction", u.sequentialCycleFraction)
            .member("reconfig_hidden_frac", u.reconfigHiddenFraction)
            .member("flops", u.flops)
            .member("dram_bytes", u.dramBytes)
            .member("arithmetic_intensity", u.arithmeticIntensity)
            .member("achieved_gflops", u.achievedGflops)
            .member("peak_gflops", u.peakGflops)
            .member("attainable_gflops", u.attainableGflops)
            .end();
    }
    if (opt.stats) {
        w.key("stats");
        acc.engine().statGroup().dumpJson(w);
    }
    if (opt.snapshots) {
        w.key("snapshots");
        opt.snapshots->dumpJson(w);
    }
    w.end();
    os << '\n';
}

} // namespace alr
