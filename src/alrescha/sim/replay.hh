/**
 * @file
 * Replay kernel dispatch + specialization for the scheduled
 * functional pass.
 *
 * The schedule compiler resolves every block row into an ω-wide value
 * record and a gather-plan offset into a chunk-padded operand buffer
 * (ExecSchedule::xOff / paddedOperand), so replaying a path is pure
 * full-width multiply-reduce work -- exactly the dense ω-lane
 * streaming the FCU models.  This layer executes it at native width:
 *
 *  - Stage 1 (runtime ISA dispatch): one width-agnostic kernel core
 *    (replay_body.hh) is instantiated per compiled-in ISA --
 *    SSE2/AVX2/AVX-512/NEON, each in its own TU with matching -m
 *    flags -- plus a portable scalar arm.  select() picks the widest
 *    table the machine executes via cpuid/HWCAP, overridable with
 *    AccelParams::simdMode (alr_sim --simd=) or the ALR_SIMD_FORCE
 *    environment variable; an unavailable choice falls back down the
 *    chain, never crashes.
 *  - Stage 2 (schedule-time specialization): specialize() stamps the
 *    per-(ω, kernel) entry points straight into the ExecSchedule, so
 *    the replayed loop body carries zero switches and zero indirect
 *    table reads.  ω outside {2, 4, 8} stamps the runtime-ω generic
 *    arms instead.
 *
 * Every arm reduces in the canonical pairwise tree order (reduce.hh),
 * so the reference engine (the table interpreter, tests/reference),
 * the scheduled scalar path, and every dispatched ISA produce
 * bit-identical doubles; which arm runs is purely a wall-time choice.
 */

#ifndef ALR_ALRESCHA_SIM_REPLAY_HH
#define ALR_ALRESCHA_SIM_REPLAY_HH

#include "alrescha/params.hh"
#include "alrescha/sim/replay_fns.hh"

namespace alr {
class ThreadPool;
namespace json {
class Writer;
}

namespace replay {

namespace detail {
struct KernelTable;
}

/** True when at least one vector ISA was compiled in (CMake ALR_SIMD);
 *  the scalar arm exists in every build. */
bool simdAvailable();

/** Comma-separated ISAs compiled into this binary, e.g.
 *  "scalar,sse2,avx2,avx512" (build provenance). */
const char *compiledIsas();

/** ISA the Auto dispatch selects on this machine right now (honors
 *  ALR_SIMD_FORCE): "avx512", "avx2", "sse2", "neon" or "scalar". */
const char *isaName();

/** ISA that @p mode resolves to on this machine (== toString(mode)
 *  when the request is satisfiable, else the fallback's name). */
const char *selectedName(SimdMode mode);

/** Comma-separated ω values with compile-time specialized kernels
 *  (other widths fall back to the generic runtime-ω arm). */
const char *omegaSpecializations();

/** Mode spelling used by --simd= / ALR_SIMD_FORCE. */
const char *toString(SimdMode mode);

/**
 * The shared "version" provenance block every JSON artifact embeds
 * (the --json reports, the profile), as @p w's next value:
 * {"git", "simd_build", "simd_runtime", "omega_specializations"}.
 * simd_runtime reflects what @p mode resolves to on this machine, so
 * reports stay honest about which arm actually ran.
 */
void writeVersionJson(json::Writer &w, SimdMode mode);

/** Parse a --simd= / ALR_SIMD_FORCE spelling ("auto", "scalar",
 *  "sse2", "avx2", "avx512", "neon"); false on unknown input. */
bool parseSimdMode(const char *text, SimdMode *mode);

/**
 * Runtime dispatch: the kernel table for @p mode on this machine.
 * Auto (or a forced ISA that is not compiled in / not executable)
 * walks the chain avx512 -> avx2 -> sse2 -> neon -> scalar and
 * returns the first available table -- never null, never a table the
 * CPU cannot execute.
 */
const detail::KernelTable *select(SimdMode mode);

/**
 * Stamp the replay entry points for @p S into S.fns: the selected
 * table's per-(ω, kernel) slot when ω ∈ {2, 4, 8}, the generic
 * runtime-ω arms otherwise.  Called by compileSchedule as its final
 * step, and by the cache loader on every restored schedule.
 */
void specialize(ExecSchedule &S, const AccelParams &params);

/**
 * Run a whole SymGS sweep of @p S level by level on @p pool, in place
 * on the staged iterate @p xw: one parallel region whose T =
 * pool.threadCount() participants run every level's T contiguous
 * slices (ExecSchedule::sweepOrder) through S.fns.sweep, a level's
 * slices only once the level below is done.  Each participant has its
 * own link stack, @p links + t * linkPeak * ω, so @p links holds T
 * times a serial sweep's scratch.  The results are bit-identical to one
 * serial call in natural order.
 */
void sweepLevels(const ExecSchedule &S, ThreadPool &pool, const Value *b,
                 const Value *diag, Value *xw, Value *links);

} // namespace replay
} // namespace alr

#endif // ALR_ALRESCHA_SIM_REPLAY_HH
