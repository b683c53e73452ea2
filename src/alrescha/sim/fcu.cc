#include "alrescha/sim/fcu.hh"

namespace alr {

void
Fcu::noteOps(const FcuOpCounts &c)
{
    if (c.alu != 0.0)
        _aluOps += c.alu;
    if (c.reduce != 0.0)
        _reduceOps += c.reduce;
    if (c.mul != 0.0)
        _mulOps += c.mul;
    if (c.add != 0.0)
        _addOps += c.add;
}

int
Fcu::fillLatency(ReduceOp reduce) const
{
    int re = reduce == ReduceOp::Sum ? _params.reSumLatency
                                     : _params.reMinLatency;
    return _params.aluLatency + _params.treeDepth() * re;
}

void
Fcu::reset()
{
    _aluOps.reset();
    _reduceOps.reset();
    _mulOps.reset();
    _addOps.reset();
}

void
Fcu::registerStats(stats::StatGroup &group)
{
    _stats.registerScalar("alu_ops", &_aluOps, "phase-1 ALU operations");
    _stats.registerScalar("reduce_ops", &_reduceOps,
                          "reduce-engine operations");
    _stats.registerScalar("mul_ops", &_mulOps, "multiplications");
    _stats.registerScalar("add_ops", &_addOps, "additions");
    group.addChild(&_stats);
}

} // namespace alr
