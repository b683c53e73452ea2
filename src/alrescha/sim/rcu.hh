/**
 * @file
 * The reconfigurable compute unit (paper §4.3-4.4, Fig 9b-d): local
 * cache, FIFOs, the link stack, LUT-based processing elements, and the
 * configurable switch that rewires them per data path.
 *
 * Only the RCU is reconfigured when the data path changes; the switch
 * reprogramming overlaps with draining the FCU's reduction tree, so the
 * net stall is max(0, configCycles - drainCycles).
 */

#ifndef ALR_ALRESCHA_SIM_RCU_HH
#define ALR_ALRESCHA_SIM_RCU_HH

#include <optional>

#include "alrescha/config_table.hh"
#include "alrescha/params.hh"
#include "alrescha/sim/cache.hh"
#include "alrescha/sim/link_stack.hh"

namespace alr {

/**
 * The timing events an engine run counts while it walks: the local
 * cache's accesses plus the configurable switch's reconfigurations,
 * as plain integers.  They reach the registered stats once per run
 * (Rcu::flush from Engine::commitRun), and one run's record is what a
 * timing-memo entry replays: the values are integers, so one add is
 * bit-identical to the walk's many.
 */
struct WalkCounts
{
    CacheModel::Counts cache;
    uint64_t reconfigs = 0;
    uint64_t reconfigStallCycles = 0;
    /** Config cycles of switch rewrites (see _switchConfigCycles). */
    uint64_t switchConfigCycles = 0;
};

class Rcu
{
  public:
    Rcu(const AccelParams &params, MemoryModel *memory);

    /**
     * Switch the configurable switch to @p dp.  Returns the cycles
     * charged: zero when already configured; otherwise the reduction
     * tree drain time plus any exposed reconfiguration cycles.
     *
     * @p hidden_out, when non-null, reports the portion of the charge
     * that represents config time hidden under the reduction-tree
     * drain (the drain itself on a path switch; zero for the initial
     * programming configuration, which has no drain to hide under).
     * Profiler-only; does not affect the model.
     */
    uint64_t reconfigure(DataPathType dp, uint64_t *hidden_out = nullptr)
    {
        // Inline: a timing walk asks once per path, and most paths keep
        // the configured data path.
        if (hidden_out)
            *hidden_out = 0;
        if (_current == dp)
            return 0;
        return switchTo(dp, hidden_out);
    }

    /** Currently configured data path, if any. */
    std::optional<DataPathType> configured() const { return _current; }

    CacheModel &cache() { return _cache; }
    const CacheModel &cache() const { return _cache; }
    LinkStack &linkStack() { return _linkStack; }
    const LinkStack &linkStack() const { return _linkStack; }

    /** A LUT PE operation (divide/subtract); returns its latency. */
    uint64_t peOp();

    /** Add a batch of locally counted PE operations (schedule path). */
    void notePeOps(double count);

    /**
     * Declare the switch configured for @p dp without charging cycles:
     * a run replayed from the timing memo leaves the switch where its
     * walk would have (the memo entry carries the walk's switch
     * counts).
     */
    void setConfigured(DataPathType dp) { _current = dp; }

    /** Counts include reconfigurations not yet flushed. */
    double reconfigurations() const
    {
        return _reconfigs.value() + double(_pendingReconfigs);
    }
    double reconfigStallCycles() const
    {
        return _reconfigStall.value() + double(_pendingStallCycles);
    }
    double peOps() const { return _peOps.value(); }

    /** Events counted since the last flush, the cache's included. */
    WalkCounts pending() const;
    /** Count @p counts as if walked (a timing-memo hit). */
    void addPending(const WalkCounts &counts);
    /** Add every pending count -- the switch's, the cache's and the
     *  link stack's -- to the registered stats and clear it. */
    void flush();

    /**
     * Fraction of switch-rewrite config cycles hidden under the
     * reduction-tree drain (the paper's §4.4 overlap claim as a
     * number): 1.0 when every reconfiguration was fully covered, and
     * 1.0 vacuously when no path switch ever happened (GEMV-only
     * runs).  The initial programming configuration is excluded — it
     * has no drain to hide under.
     */
    double reconfigHiddenFraction() const;

    void reset();
    /** Attach the "rcu" sub-group, plus the cache's and link stack's,
     *  to @p group. */
    void registerStats(stats::StatGroup &group);

  private:
    /** reconfigure() when @p dp is not configured. */
    uint64_t switchTo(DataPathType dp, uint64_t *hidden_out);

    AccelParams _params;
    CacheModel _cache;
    LinkStack _linkStack;
    std::optional<DataPathType> _current;
    /** Switch events since the last flush (see WalkCounts). */
    uint64_t _pendingReconfigs = 0;
    uint64_t _pendingStallCycles = 0;
    uint64_t _pendingSwitchConfigCycles = 0;

    stats::StatGroup _stats{"rcu"};
    stats::Scalar _reconfigs;
    stats::Scalar _reconfigStall;
    stats::Scalar _peOps;
    /** Config cycles charged by switch rewrites (excludes the first,
     *  programming-phase configuration), denominator of the hidden
     *  fraction. */
    stats::Scalar _switchConfigCycles;
};

} // namespace alr

#endif // ALR_ALRESCHA_SIM_RCU_HH
