#include "reference/link_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace alr {

void
LinkBuffer::push(const DenseVector &partials)
{
    ALR_ASSERT(_depth == 0 || partials.size() == _width,
               "link-stack width mismatch");
    _width = partials.size();
    const size_t off = _depth * _width;
    if (_buf.size() < off + _width)
        _buf.resize(off + _width);
    std::copy(partials.begin(), partials.end(), _buf.begin() + off);
    ++_depth;
    ++_pushes;
    _peak = std::max<uint64_t>(_peak, _depth);
}

DenseVector
LinkBuffer::popAccumulate(Index omega)
{
    ALR_ASSERT(_depth == 0 || omega == _width, "link-stack width mismatch");
    DenseVector acc(omega, 0.0);
    for (; _depth > 0; --_depth) {
        const Value *top = _buf.data() + (_depth - 1) * _width;
        for (Index i = 0; i < omega; ++i)
            acc[i] += top[i];
        ++_pops;
    }
    return acc;
}

} // namespace alr
