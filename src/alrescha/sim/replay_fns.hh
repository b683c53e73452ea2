/**
 * @file
 * Replay entry-point signatures stamped into ExecSchedule.
 *
 * compileSchedule resolves the replay kernels once -- per (runtime
 * ISA, ω) -- and stores the chosen function pointers here, so the
 * engine's hot loops call straight into a fully specialized body: no
 * per-call ω switch, no ISA branch, no table reads.  Kept separate
 * from replay.hh so schedule.hh can embed the pointers without an
 * include cycle (the signatures only need a forward-declared
 * ExecSchedule).
 */

#ifndef ALR_ALRESCHA_SIM_REPLAY_FNS_HH
#define ALR_ALRESCHA_SIM_REPLAY_FNS_HH

#include <cstddef>

#include "sparse/types.hh"

namespace alr {

struct ExecSchedule;

namespace replay {

/** Replay SpMV paths [pBegin, pEnd): accumulate each row record's dot
 *  product into y[row].  @p xpad is the operand staged to
 *  ExecSchedule::paddedOperand entries (tail zeroed). */
using SpmvFn = void (*)(const ExecSchedule &S, const Value *xpad,
                        Value *y, size_t pBegin, size_t pEnd);

/** Right-hand sides one SpMM replay call takes: the widest replay
 *  vector's lane count. */
constexpr size_t kSpmmMaxRhs = 8;

/** Row stride of SpMM's interleaved operands and results for k <=
 *  kSpmmMaxRhs right-hand sides: k rounded up to 2, 4 or 8, so the
 *  lane groups of every arm (the narrowest of 2, 4 and 8 lanes holding
 *  k, up to the ISA's width) stay inside a row. */
constexpr size_t
spmmStride(size_t k)
{
    return k <= 2 ? 2 : k <= 4 ? 4 : 8;
}

/** Replay SpMM paths [pBegin, pEnd) for @p k <= kSpmmMaxRhs
 *  right-hand sides, held interleaved: element c of right-hand side j
 *  at xt[c * spmmStride(k) + j] (ExecSchedule::paddedOperand rows,
 *  zero past each operand and in the lanes past k), and row r's dot
 *  for j accumulated into yt[r * spmmStride(k) + j]. */
using SpmmFn = void (*)(const ExecSchedule &S, const Value *xt, Value *yt,
                        size_t k, size_t pBegin, size_t pEnd);

/**
 * Replay positions [@p begin, @p end) of a SymGS sweep's group order
 * in place on the staged iterate @p xw (ExecSchedule::paddedOperand
 * entries, zero past the rows): group @p order[k] at each position k,
 * or group k itself when @p order is null (the natural order, in which
 * [0, groups) is the whole serial sweep).  Each block-row group is its
 * GEMV paths and then one D-SymGS chain (tallySweepGroups): the GEMVs
 * push their row dots to the link stack in @p links (scratch of
 * ExecSchedule::linkPeak * ω entries), the chain pops them -- newest
 * first, onto +0.0 -- into an ω-wide sum, and sets xw[r] = (b[r] -
 * (sum[lr] + dot)) / diag[r] row by row, its diagonal lane masked out
 * of the dot.
 */
using SweepFn = void (*)(const ExecSchedule &S, const Value *b,
                         const Value *diag, Value *xw, Value *links,
                         const size_t *order, size_t begin, size_t end);

/** The resolved entry points, stamped by replay::specialize. */
struct Fns
{
    SpmvFn spmv = nullptr;
    SpmmFn spmm = nullptr;
    SweepFn sweep = nullptr;
};

} // namespace replay
} // namespace alr

#endif // ALR_ALRESCHA_SIM_REPLAY_FNS_HH
