/**
 * @file
 * The reference engine's link stack: the RCU's LIFO buffer (paper
 * §4.4, Fig 11) as a real flat depth x omega buffer.  Each GEMV pushes
 * its omega-wide partial sums, and its block row's D-SymGS pops every
 * entry and accumulates them, top first onto zeros.  The engine's sweep
 * kernel adds the same partials in the same order without the buffer
 * (replay::SweepFn); the reference keeps it as the literal reading.
 * Its push, pop and peak counts go to the engine's LinkStack counters
 * at the end of each run.
 */

#ifndef ALR_TESTS_REFERENCE_LINK_BUFFER_HH
#define ALR_TESTS_REFERENCE_LINK_BUFFER_HH

#include <cstdint>
#include <vector>

#include "sparse/types.hh"

namespace alr {

class LinkBuffer
{
  public:
    /** Push a copy of @p partials.  Every entry on the stack has one
     *  width. */
    void push(const DenseVector &partials);

    /**
     * Pop every pending entry (LIFO) and return their element-wise sum,
     * accumulated top first onto zeros (@p omega wide).  Zeros when the
     * stack is empty (a block row with no off-diagonal blocks).
     */
    DenseVector popAccumulate(Index omega);

    bool empty() const { return _depth == 0; }
    size_t depth() const { return _depth; }

    uint64_t pushes() const { return _pushes; }
    uint64_t pops() const { return _pops; }
    /** Deepest occupancy so far. */
    uint64_t peak() const { return _peak; }

  private:
    /** Entry e occupies [e * _width, (e + 1) * _width). */
    std::vector<Value> _buf;
    size_t _width = 0;
    size_t _depth = 0;
    uint64_t _pushes = 0;
    uint64_t _pops = 0;
    uint64_t _peak = 0;
};

} // namespace alr

#endif // ALR_TESTS_REFERENCE_LINK_BUFFER_HH
