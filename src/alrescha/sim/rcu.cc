#include "alrescha/sim/rcu.hh"

#include <algorithm>

namespace alr {

Rcu::Rcu(const AccelParams &params, MemoryModel *memory)
    : _params(params), _cache(params, memory)
{
}

uint64_t
Rcu::switchTo(DataPathType dp, uint64_t *hidden_out)
{
    uint64_t charged = 0;
    if (_current) {
        // The tree drains while the switch is rewritten; only config
        // time beyond the drain is exposed (paper §4.4).
        int drain = _params.drainCycles();
        int exposed = std::max(0, _params.configCycles - drain);
        charged = uint64_t(drain + exposed);
        if (hidden_out)
            *hidden_out = uint64_t(drain);
        _pendingStallCycles += uint64_t(exposed);
        _pendingSwitchConfigCycles += uint64_t(_params.configCycles);
    } else {
        // First configuration: programming phase, charge config time.
        charged = uint64_t(_params.configCycles);
    }
    ++_pendingReconfigs;
    _current = dp;
    return charged;
}

uint64_t
Rcu::peOp()
{
    ++_peOps;
    return uint64_t(_params.peLatency);
}

void
Rcu::notePeOps(double count)
{
    if (count != 0.0)
        _peOps += count;
}

WalkCounts
Rcu::pending() const
{
    return {_cache.pending(), _pendingReconfigs, _pendingStallCycles,
            _pendingSwitchConfigCycles};
}

void
Rcu::addPending(const WalkCounts &counts)
{
    _cache.addPending(counts.cache);
    _pendingReconfigs += counts.reconfigs;
    _pendingStallCycles += counts.reconfigStallCycles;
    _pendingSwitchConfigCycles += counts.switchConfigCycles;
}

void
Rcu::flush()
{
    if (_pendingReconfigs != 0)
        _reconfigs += double(_pendingReconfigs);
    if (_pendingStallCycles != 0)
        _reconfigStall += double(_pendingStallCycles);
    if (_pendingSwitchConfigCycles != 0)
        _switchConfigCycles += double(_pendingSwitchConfigCycles);
    _pendingReconfigs = _pendingStallCycles = 0;
    _pendingSwitchConfigCycles = 0;
    _cache.flush();
    _linkStack.flush();
}

double
Rcu::reconfigHiddenFraction() const
{
    double cfg =
        _switchConfigCycles.value() + double(_pendingSwitchConfigCycles);
    if (cfg <= 0.0)
        return 1.0; // no switch ever happened: vacuously all hidden
    return (cfg - reconfigStallCycles()) / cfg;
}

void
Rcu::reset()
{
    _cache.reset();
    _linkStack.reset();
    _current.reset();
    _pendingReconfigs = _pendingStallCycles = 0;
    _pendingSwitchConfigCycles = 0;
    _reconfigs.reset();
    _reconfigStall.reset();
    _peOps.reset();
    _switchConfigCycles.reset();
}

void
Rcu::registerStats(stats::StatGroup &group)
{
    _stats.registerScalar("reconfigurations", &_reconfigs,
                          "configurable-switch rewrites");
    _stats.registerScalar("reconfig_stall_cycles", &_reconfigStall,
                          "reconfiguration cycles not hidden by draining");
    _stats.registerScalar("pe_ops", &_peOps,
                          "LUT processing-element operations");
    _stats.registerFormula("reconfig_hidden_frac",
                           [this] { return reconfigHiddenFraction(); },
                           "fraction of switch config cycles hidden under "
                           "the reduction-tree drain");
    group.addChild(&_stats);
    // The cache and link stack attach to the engine's root group, not
    // under "rcu", preserving the historical "cache.*" / "link.*"
    // namespaces.
    _cache.registerStats(group);
    _linkStack.registerStats(group);
}

} // namespace alr
