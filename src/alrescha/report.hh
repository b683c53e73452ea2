/**
 * @file
 * Shared emitters for the alr_sim and alr_serve --json report
 * documents.
 *
 * Kept out of the drivers so the same documents can be produced
 * in-process: the CLIs print them to stdout, alr_sim's --ab harness
 * captures baseline and variant runs to strings and diffs them, and
 * tests check them with diff::check.  One emitter per document, one
 * schema each (the Sim and Serve classifiers of alr_diff check), written
 * through json::Writer: every number at full precision, the profile,
 * stat tree and snapshots nested through the same writer.
 */

#ifndef ALR_ALRESCHA_REPORT_HH
#define ALR_ALRESCHA_REPORT_HH

#include <ostream>
#include <string>

#include "alrescha/accelerator.hh"
#include "alrescha/serve.hh"
#include "common/stats.hh"

namespace alr {

/** What to embed in the report document (mirrors the CLI flags). */
struct SimReportOptions
{
    std::string kernel = "spmv";
    Index omega = 8;
    SimdMode simdMode = SimdMode::Auto;
    bool utilization = false; ///< --report: embed the roofline block
    bool stats = false;       ///< --stats: embed the full stat tree
    /** Non-null: embed the periodic stat snapshots time series. */
    const stats::StatSnapshotter *snapshots = nullptr;
};

/**
 * Emit the complete --json document: schema_version, identity
 * (kernel/omega), the modeled report (cycles, bytes, energy with the
 * per-component breakdown), build provenance, and -- when enabled --
 * the embedded profile, utilization, stat tree, and snapshots, as one
 * valid JSON document.
 */
void writeSimReportJson(std::ostream &os, const Accelerator &acc,
                        const SimReportOptions &opt);

/** What the serve report states besides the drain and its fleet. */
struct ServeReportOptions
{
    /** Requests in the trace the drain served. */
    size_t requests = 0;
    /** Schedules restored from a cache directory before the warm-up. */
    size_t schedulesRestored = 0;
    /** Schedule compiles the warm-up performed. */
    uint64_t warmCompiles = 0;
    SimdMode simdMode = SimdMode::Auto;
};

/**
 * Emit alr_serve's --json document for a drain of @p fleet under
 * @p cfg: schema_version, the fleet and trace sizes, the drain's
 * counts, schedule-cache counters, modeled cycles, wall time and rate,
 * exact latency percentiles (ns), the @p slo accounting overall and per
 * matrix, queue and batch statistics and build provenance, followed by
 * a newline.
 */
void writeServeReportJson(std::ostream &os, const ServeFleet &fleet,
                          const ServeConfig &cfg, const ServeResult &res,
                          const SloReport &slo,
                          const ServeReportOptions &opt);

} // namespace alr

#endif // ALR_ALRESCHA_REPORT_HH
