/**
 * @file
 * The link buffer: a LIFO stack in the RCU that carries intermediate
 * GEMV results into the successive D-SymGS data path (paper §4.4,
 * Fig 11).  GEMV pushes one omega-wide partial-sum vector per block;
 * D-SymGS pops and accumulates everything pushed for its block row.
 *
 * The stack is one flat depth x omega buffer: a GEMV writes its
 * partials straight into the slot it pushes, and nothing is allocated
 * once the buffer has grown to a sweep's deepest block row.  Pushes,
 * pops and the peak depth are counted in plain integers and added to
 * the stats once per run (flush()).
 */

#ifndef ALR_ALRESCHA_SIM_LINK_STACK_HH
#define ALR_ALRESCHA_SIM_LINK_STACK_HH

#include <algorithm>
#include <vector>

#include "common/stats.hh"
#include "sparse/types.hh"

namespace alr {

class LinkStack
{
  public:
    /**
     * Push a zeroed @p omega-wide entry and return it, for the GEMV to
     * write its partial sums into in place.  The pointer stays valid
     * until the next push.  Every entry on the stack has one width.
     */
    Value *push(Index omega);

    /** Push a copy of @p partials. */
    void push(const DenseVector &partials);

    /**
     * Pop every pending entry (LIFO) and write their element-wise sum,
     * accumulated top first onto zeros, to @p acc (@p omega wide).
     * Zeros when the stack is empty (a block row with no off-diagonal
     * blocks).
     */
    void popAccumulate(Value *acc, Index omega);

    /** popAccumulate into a new vector. */
    DenseVector popAccumulate(Index omega);

    bool empty() const { return _depth == 0; }
    size_t depth() const { return _depth; }

    /** Counts include pushes and pops not yet flushed. */
    double pushes() const { return _pushes.value() + double(_pendingPushes); }
    double pops() const { return _pops.value() + double(_pendingPops); }
    double maxDepth() const
    {
        return std::max(_maxDepth.value(), double(_pendingPeak));
    }

    /** Add the counts since the last flush to the registered stats. */
    void flush();

    void reset();
    /** Attach this model's "link" stat sub-group to @p group. */
    void registerStats(stats::StatGroup &group);

  private:
    /** Entry e occupies [e * _width, (e + 1) * _width). */
    std::vector<Value> _buf;
    size_t _width = 0;
    size_t _depth = 0;

    uint64_t _pendingPushes = 0;
    uint64_t _pendingPops = 0;
    /** Deepest occupancy since the last flush. */
    size_t _pendingPeak = 0;

    stats::StatGroup _stats{"link"};
    stats::Scalar _pushes;
    stats::Scalar _pops;
    stats::Scalar _maxDepth;
};

} // namespace alr

#endif // ALR_ALRESCHA_SIM_LINK_STACK_HH
