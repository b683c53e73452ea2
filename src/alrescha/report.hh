/**
 * @file
 * Shared emitter for the alr_sim --json report document.
 *
 * Extracted from the alr_sim driver so the same document can be
 * produced in-process: the CLI prints it to stdout, the --ab harness
 * captures baseline and variant runs to strings and diffs them, and
 * tests round-trip it through the common/json reader.  One emitter,
 * one schema (validated against tools/alr_diff's Sim classifier),
 * written through json::Writer: every number at full precision, the
 * profile, stat tree and snapshots nested through the same writer.
 */

#ifndef ALR_ALRESCHA_REPORT_HH
#define ALR_ALRESCHA_REPORT_HH

#include <ostream>
#include <string>

#include "alrescha/accelerator.hh"
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

} // namespace alr

#endif // ALR_ALRESCHA_REPORT_HH
