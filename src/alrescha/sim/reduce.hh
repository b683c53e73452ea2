/**
 * @file
 * The canonical FCU reduction order (paper §4.3, Fig 9a).
 *
 * The hardware reduces a block row with a log2(ω)-deep tree of reduce
 * engines: adjacent lanes combine at the first level, adjacent partial
 * results at every level after.  The simulator commits to exactly that
 * order everywhere a block row is reduced -- Fcu::vectorReduce (the
 * test-only reference engine), the scheduled scalar replay and the
 * graph rounds' record loops, and the SIMD replay kernels -- so all of
 * them produce bit-identical doubles.
 *
 * Lane counts that are not powers of two are padded to the next power
 * of two with the reduction identity (+0.0 for Sum, +inf for Min),
 * which models the unused tree inputs being fed the identity.  Note
 * +0.0 is only an identity up to the sign of zero (-0.0 + 0.0 == +0.0);
 * every caller therefore pads with the identity *before* reducing
 * rather than special-casing short rows, keeping the order -- and any
 * signed zeros -- consistent across paths.
 */

#ifndef ALR_ALRESCHA_SIM_REDUCE_HH
#define ALR_ALRESCHA_SIM_REDUCE_HH

#include <algorithm>
#include <limits>

#include "sparse/types.hh"

namespace alr {
namespace fcutree {

/** Round @p n up to the next power of two (returns 1 for n == 0). */
constexpr Index
ceilPow2(Index n)
{
    Index w = 1;
    while (w < n)
        w <<= 1;
    return w;
}

/**
 * Reduce p[0..lanes) by summation in the canonical tree order.
 * Destroys p; the buffer must have room for ceilPow2(lanes) entries
 * (the pad lanes are written here).
 */
inline Value
sumTree(Value *p, Index lanes)
{
    Index width = ceilPow2(lanes);
    for (Index i = lanes; i < width; ++i)
        p[i] = 0.0;
    for (Index w = width; w > 1; w >>= 1)
        for (Index i = 0; i < w / 2; ++i)
            p[i] = p[2 * i] + p[2 * i + 1];
    return p[0];
}

/** Min-reduction analogue of sumTree (identity +inf). */
inline Value
minTree(Value *p, Index lanes)
{
    Index width = ceilPow2(lanes);
    for (Index i = lanes; i < width; ++i)
        p[i] = std::numeric_limits<Value>::infinity();
    for (Index w = width; w > 1; w >>= 1)
        for (Index i = 0; i < w / 2; ++i)
            p[i] = std::min(p[2 * i], p[2 * i + 1]);
    return p[0];
}

} // namespace fcutree
} // namespace alr

#endif // ALR_ALRESCHA_SIM_REDUCE_HH
