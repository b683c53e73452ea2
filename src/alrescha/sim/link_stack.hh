/**
 * @file
 * The link buffer: a LIFO stack in the RCU that carries intermediate
 * GEMV results into the successive D-SymGS data path (paper §4.4,
 * Fig 11).  GEMV pushes one omega-wide partial-sum vector per block;
 * D-SymGS pops and accumulates everything pushed for its block row.
 *
 * The engine's sweep kernel (replay::SweepFn) keeps a block row's
 * partials in scratch of its own: each GEMV writes its row dots into a
 * zero-filled omega-wide slot, and the chain adds the slots newest
 * first onto +0.0, the stack's exact arithmetic.  A sweep's pushes,
 * pops and peak depth are fixed by its schedule
 * (ExecSchedule::linkPushes, linkPeak).  This model keeps only those
 * counts, noted once per run and added to the stats at the run's
 * flush().  (The test-only reference engine keeps a real buffer.)
 */

#ifndef ALR_ALRESCHA_SIM_LINK_STACK_HH
#define ALR_ALRESCHA_SIM_LINK_STACK_HH

#include <algorithm>
#include <cstdint>

#include "common/stats.hh"

namespace alr {

class LinkStack
{
  public:
    /** Count one run's traffic: @p pushes and @p pops, and the deepest
     *  occupancy it reached. */
    void note(uint64_t pushes, uint64_t pops, uint64_t peak)
    {
        _pendingPushes += pushes;
        _pendingPops += pops;
        _pendingPeak = std::max(_pendingPeak, peak);
    }

    /** Counts include runs not yet flushed. */
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
    uint64_t _pendingPushes = 0;
    uint64_t _pendingPops = 0;
    /** Deepest occupancy since the last flush. */
    uint64_t _pendingPeak = 0;

    stats::StatGroup _stats{"link"};
    stats::Scalar _pushes;
    stats::Scalar _pops;
    stats::Scalar _maxDepth;
};

} // namespace alr

#endif // ALR_ALRESCHA_SIM_LINK_STACK_HH
