/**
 * @file
 * ExecSchedule (de)serialization: the program-once/run-many half of
 * the serving mode.  A compiled schedule is a pure function of the
 * (matrix, table, params) triple, so persisting the engine's MRU cache
 * next to the program image lets a warm start replay with zero
 * compileSchedule calls.
 *
 * What round-trips: every per-path vector, row record, group
 * boundary, and per-run constant -- the complete compiled state.
 * What does not: the stamped replay entry points (fns), which are
 * process-local function pointers; the loader
 * re-stamps them through replay::specialize, so a restored schedule is
 * indistinguishable from a freshly compiled one (bit-identical
 * results, cycles, and stat dumps -- the round-trip tests enforce it).
 *
 * Cache files are keyed on content hashes (not generation counters,
 * which restart from zero every process) and carry a fingerprint of
 * the schedule-shaping AccelParams; any mismatch, truncation, or
 * corruption makes the loader fall back to recompiling -- never crash.
 */

#ifndef ALR_ALRESCHA_SIM_SCHEDULE_IO_HH
#define ALR_ALRESCHA_SIM_SCHEDULE_IO_HH

#include <iosfwd>

#include "alrescha/params.hh"
#include "alrescha/sim/schedule.hh"

namespace alr {

/** Write the complete compiled state of @p s (everything except the
 *  process-local replay entry points). */
void serializeSchedule(std::ostream &out, const ExecSchedule &s);

/**
 * Read one schedule back.  Throws std::runtime_error on truncated or
 * corrupt input.  The replay entry points are NOT stamped -- callers
 * must run replay::specialize before executing the schedule.
 */
ExecSchedule deserializeSchedule(std::istream &in);

/**
 * Digest of the AccelParams fields a compiled schedule's contents
 * depend on: the block width (omega) and whether empty block rows are
 * skipped.  A schedule holds no timing term, so no latency, bandwidth
 * or cache geometry enters it; the table-shaping knobs
 * (reorderDataPaths) reach it through the table's content hash, which
 * keys each entry; thread counts and the SIMD mode only affect the
 * re-stamped entry points.  A persisted cache whose fingerprint
 * differs from the loading engine's params is stale and is recompiled
 * instead.
 */
uint64_t scheduleParamsFingerprint(const AccelParams &params);

} // namespace alr

#endif // ALR_ALRESCHA_SIM_SCHEDULE_IO_HH
