#include "alrescha/report.hh"

#include "alrescha/sim/profile.hh"
#include "alrescha/sim/replay.hh"
#include "common/json.hh"
#include "common/metrics.hh"
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

void
writeServeReportJson(std::ostream &os, const ServeFleet &fleet,
                     const ServeConfig &cfg, const ServeResult &res,
                     const SloReport &slo, const ServeReportOptions &opt)
{
    uint64_t evictions = 0;
    for (size_t i = 0; i < fleet.size(); ++i)
        evictions += fleet.at(i).engine().scheduleEvictions();

    json::Writer w(os);
    w.beginObject()
        .member("schema_version", version::kJsonSchemaVersion)
        .member("fleet", fleet.size())
        .member("requests", opt.requests)
        .member("completed", res.completed)
        .member("work_items", res.workItems)
        .member("batch_window", cfg.batchWindow)
        .member("threads", cfg.threads)
        .member("schedules_restored", opt.schedulesRestored)
        .member("schedule_compiles_warm", opt.warmCompiles)
        .member("schedule_compiles_total", fleet.scheduleCompiles())
        .member("schedule_evictions", evictions)
        .member("modeled_cycles", fleet.totalCycles())
        .member("wall_ms", res.wallMs)
        .member("requests_per_sec", res.requestsPerSec)
        .key("latency_ns")
        .beginObject(true)
        .member("p50", metrics::exactPercentile(res.latencyUs, 50) * 1e3)
        .member("p95", metrics::exactPercentile(res.latencyUs, 95) * 1e3)
        .member("p99", metrics::exactPercentile(res.latencyUs, 99) * 1e3)
        .end();
    auto sloBucket = [&](const SloBucket &b) {
        w.beginObject(true)
            .member("name", b.name)
            .member("requests", b.requests)
            .member("good", b.good)
            .member("bad", b.bad)
            .key("latency_us")
            .beginObject()
            .member("p50", b.p50)
            .member("p95", b.p95)
            .member("p99", b.p99)
            .member("p99.9", b.p999)
            .end()
            .end();
    };
    // SLO accounting, overall and per matrix, with its own exact
    // percentiles in microseconds.
    w.key("slo")
        .beginObject()
        .member("target_us", slo.sloUs)
        .member("objective", slo.objective)
        .member("bad_fraction", slo.badFraction())
        .member("burn_rate", slo.burnRate())
        .key("total");
    sloBucket(slo.total);
    w.key("per_matrix").beginArray();
    for (const SloBucket &b : slo.perMatrix)
        sloBucket(b);
    w.end().end();
    w.key("queue")
        .beginObject(true)
        .member("high_water", res.queueHighWater)
        .member("blocked_pushes", res.queueBlockedPushes)
        .member("rejects", res.queueRejects)
        .end()
        .key("batch_size")
        .beginObject(true)
        .member("batches", res.batchSize.count())
        .member("mean", res.batchSize.mean())
        .member("max", res.batchSize.max())
        .end()
        .key("version");
    replay::writeVersionJson(w, opt.simdMode);
    w.end();
    os << '\n';
}

} // namespace alr
