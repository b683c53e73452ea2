#include "alrescha/sim/link_stack.hh"

namespace alr {

void
LinkStack::flush()
{
    if (_pendingPushes != 0)
        _pushes += double(_pendingPushes);
    if (_pendingPops != 0)
        _pops += double(_pendingPops);
    if (double(_pendingPeak) > _maxDepth.value())
        _maxDepth.set(double(_pendingPeak));
    _pendingPushes = _pendingPops = 0;
    _pendingPeak = 0;
}

void
LinkStack::reset()
{
    _pendingPushes = _pendingPops = 0;
    _pendingPeak = 0;
    _pushes.reset();
    _pops.reset();
    _maxDepth.reset();
}

void
LinkStack::registerStats(stats::StatGroup &group)
{
    _stats.registerScalar("pushes", &_pushes, "GEMV partials pushed");
    _stats.registerScalar("pops", &_pops, "partials popped by D-SymGS");
    _stats.registerScalar("max_depth", &_maxDepth,
                          "deepest stack occupancy");
    group.addChild(&_stats);
}

} // namespace alr
