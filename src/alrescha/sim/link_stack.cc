#include "alrescha/sim/link_stack.hh"

#include "common/logging.hh"

namespace alr {

Value *
LinkStack::push(Index omega)
{
    ALR_ASSERT(_depth == 0 || omega == _width, "link-stack width mismatch");
    _width = omega;
    const size_t off = _depth * _width;
    if (_buf.size() < off + _width)
        _buf.resize(off + _width);
    Value *slot = _buf.data() + off;
    std::fill(slot, slot + _width, 0.0);
    ++_depth;
    ++_pendingPushes;
    _pendingPeak = std::max(_pendingPeak, _depth);
    return slot;
}

void
LinkStack::push(const DenseVector &partials)
{
    std::copy(partials.begin(), partials.end(), push(Index(partials.size())));
}

void
LinkStack::popAccumulate(Value *acc, Index omega)
{
    ALR_ASSERT(_depth == 0 || omega == _width, "link-stack width mismatch");
    std::fill(acc, acc + omega, 0.0);
    for (; _depth > 0; --_depth) {
        const Value *top = _buf.data() + (_depth - 1) * _width;
        for (Index i = 0; i < omega; ++i)
            acc[i] += top[i];
        ++_pendingPops;
    }
}

DenseVector
LinkStack::popAccumulate(Index omega)
{
    DenseVector acc(omega);
    popAccumulate(acc.data(), omega);
    return acc;
}

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
    _depth = 0;
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
