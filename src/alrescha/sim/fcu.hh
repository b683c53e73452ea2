/**
 * @file
 * The fixed compute unit (paper §4.3, Fig 9a): omega multiplier ALUs
 * feeding a fully-pipelined tree of reduce engines.  The interconnect is
 * fixed for every data path; only the phase-1 operation (multiply or
 * add) and the reduction (sum or min) differ per path.
 *
 * The replay kernels compute the values, in the tree order of
 * reduce.hh; this model holds the pipeline latencies and the op
 * counters that drive the energy model and the Fig 16
 * sequential-fraction metric.
 */

#ifndef ALR_ALRESCHA_SIM_FCU_HH
#define ALR_ALRESCHA_SIM_FCU_HH

#include "alrescha/params.hh"
#include "common/stats.hh"

namespace alr {

/** Phase-2 reduction (Table 1). */
enum class ReduceOp : uint8_t { Sum, Min };

/**
 * Plain-local FCU operation tally.  Engine run loops accumulate into
 * one of these and flush it to the shared atomic counters once per run
 * (Fcu::noteOps) instead of performing a CAS per lane.
 */
struct FcuOpCounts
{
    double alu = 0.0;
    double reduce = 0.0;
    double mul = 0.0;
    double add = 0.0;
};

class Fcu
{
  public:
    explicit Fcu(const AccelParams &params) : _params(params) {}

    /** Add a batch of locally accumulated operation counts. */
    void noteOps(const FcuOpCounts &c);

    /** Pipeline fill latency for a path using the given reduction. */
    int fillLatency(ReduceOp reduce) const;

    /** Issue interval between block rows in steady state (cycles). */
    int rowIssueCycles() const { return 1; }

    double aluOps() const { return _aluOps.value(); }
    double reduceOps() const { return _reduceOps.value(); }
    double mulOps() const { return _mulOps.value(); }
    double addOps() const { return _addOps.value(); }

    void reset();
    /** Attach this model's "fcu" stat sub-group to @p group. */
    void registerStats(stats::StatGroup &group);

  private:
    AccelParams _params;
    stats::StatGroup _stats{"fcu"};
    stats::Scalar _aluOps;
    stats::Scalar _reduceOps;
    stats::Scalar _mulOps;
    stats::Scalar _addOps;
};

} // namespace alr

#endif // ALR_ALRESCHA_SIM_FCU_HH
