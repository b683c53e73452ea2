/**
 * @file
 * Internal per-ISA kernel tables for the replay dispatcher.
 *
 * Each ISA translation unit (replay_sse2.cc, replay_avx2.cc,
 * replay_avx512.cc, replay_neon.cc -- whichever the toolchain
 * accepted at configure time) instantiates the width-agnostic kernel
 * core (replay_body.hh) at its native lane count and exports one
 * KernelTable of fully specialized entry points.  replay.cc owns the
 * portable scalar table and selects among them at runtime
 * (cpuid/HWCAP), so a single binary carries every compiled ISA and
 * picks the widest one the machine executes.
 *
 * Not part of the public replay API -- include replay.hh instead.
 */

#ifndef ALR_ALRESCHA_SIM_REPLAY_ISA_HH
#define ALR_ALRESCHA_SIM_REPLAY_ISA_HH

#include "alrescha/sim/replay_fns.hh"

namespace alr {
namespace replay {
namespace detail {

/** One ISA's specialized kernels, indexed by ω: the compile-time
 *  specialized widths {2, 4, 8} (omegaIndex). */
struct KernelTable
{
    const char *name = "";
    SpmvFn spmv[3] = {};
    SpmmFn spmm[3] = {};
    SweepFn sweep[3] = {};
};

/** ω → specialization index (2→0, 4→1, 8→2; -1 otherwise). */
inline int
omegaIndex(Index omega)
{
    switch (omega) {
    case 2:
        return 0;
    case 4:
        return 1;
    case 8:
        return 2;
    default:
        return -1;
    }
}

/** Portable scalar kernels; always compiled (replay.cc). */
const KernelTable *scalarTable();

// Per-ISA tables: the accessor is only linked when CMake compiled the
// matching TU (replay.cc references each under its ALR_REPLAY_HAVE_*
// definition).
const KernelTable *sse2Table();
const KernelTable *avx2Table();
const KernelTable *avx512Table();
const KernelTable *neonTable();

} // namespace detail
} // namespace replay
} // namespace alr

#endif // ALR_ALRESCHA_SIM_REPLAY_ISA_HH
