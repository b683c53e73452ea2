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

/**
 * One ISA's specialized kernels: [ω index][row-layout shape].  The ω
 * axis indexes the compile-time specialized widths {2, 4, 8}; the
 * shape axis is 0 for scattered rows (indirect through
 * RowStore::rowIndex) and 1 for schedules whose GEMV-path rows
 * are consecutive, where the row index folds to base + offset.
 */
struct KernelTable
{
    const char *name = "";
    SpmvFn spmv[3][2] = {};
    SpmmFn spmm[3][2] = {};
    SweepFn sweep[3][2] = {};
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
