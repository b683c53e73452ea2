/**
 * @file
 * ExecSchedule (de)serialization: the program-once/run-many half of
 * the serving mode.  A compiled schedule is a pure function of the
 * (matrix, table, params) triple, so persisting the engine's MRU cache
 * next to the program image lets a warm start replay with zero
 * compileSchedule calls.
 *
 * What round-trips: every per-path vector, group boundary, and
 * per-run constant, and the row records -- the complete compiled
 * state.  A matrix's row store is written once, under the matrix's
 * content hash, however many of its schedules hold it
 * (DESIGN.md "Schedule compiler").
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
#include <memory>

#include "alrescha/params.hh"
#include "alrescha/sim/schedule.hh"

namespace alr {

/** Write the row records of @p r, with its omega. */
void serializeRowStore(std::ostream &out, const RowStore &r);

/**
 * Read one row store back, checked on its own: omega values per
 * record, a monotone row range per path that ends at the record count,
 * and at most omega records per path.  Throws std::runtime_error on
 * truncated or corrupt input.
 */
RowStore deserializeRowStore(std::istream &in);

/** Write the compiled state of @p s except its row store (written
 *  separately, once per store) and the process-local replay entry
 *  points. */
void serializeSchedule(std::ostream &out, const ExecSchedule &s);

/**
 * Read one schedule back and bind @p rows, the store its file names
 * for it; throws std::runtime_error on truncated or corrupt input, or
 * when @p rows is missing or does not cover the schedule's paths.  The
 * replay entry points are NOT stamped -- callers must run
 * replay::specialize before executing the schedule -- and countsRows is
 * left to the caller.
 */
ExecSchedule deserializeSchedule(std::istream &in,
                                 std::shared_ptr<const RowStore> rows);

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
