#include "alrescha/config_table.hh"

#include <algorithm>
#include <cmath>

#include "common/binary_io.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace alr {

const char *
toString(KernelType k)
{
    switch (k) {
      case KernelType::SpMV:     return "SpMV";
      case KernelType::SymGS:    return "SymGS";
      case KernelType::BFS:      return "BFS";
      case KernelType::SSSP:     return "SSSP";
      case KernelType::PageRank: return "PageRank";
    }
    return "?";
}

const char *
toString(DataPathType dp)
{
    switch (dp) {
      case DataPathType::Gemv:   return "GEMV";
      case DataPathType::DSymgs: return "D-SymGS";
      case DataPathType::DBfs:   return "D-BFS";
      case DataPathType::DSssp:  return "D-SSSP";
      case DataPathType::DPr:    return "D-PR";
    }
    return "?";
}

DataPathType
kernelDataPath(KernelType k)
{
    switch (k) {
      case KernelType::SpMV:     return DataPathType::Gemv;
      case KernelType::BFS:      return DataPathType::DBfs;
      case KernelType::SSSP:     return DataPathType::DSssp;
      case KernelType::PageRank: return DataPathType::DPr;
      case KernelType::SymGS:    break;
    }
    panic("SymGS decomposes into GEMV + D-SymGS, not a single path");
}

ConfigTable
ConfigTable::convert(KernelType kernel, const LocallyDenseMatrix &ld,
                     bool reorder, GsSweep direction, ThreadPool *pool)
{
    ALR_ASSERT(direction != GsSweep::Symmetric,
               "a table encodes one sweep; run forward then backward");

    ConfigTable table;
    table._kernel = kernel;
    table._direction = direction;
    table._reordered = reorder;
    table._omega = ld.omega();
    table._n = ld.rows();

    bool symgs = kernel == KernelType::SymGS;
    ALR_ASSERT(!symgs || ld.layout() == LdLayout::SymGs,
               "SymGS conversion needs the SymGs storage layout");

    const Index omega = ld.omega();
    const auto &blocks = ld.blocks();

    // The storage format already orders blocks the reordered way
    // (off-diagonals first, diagonal last per block row); the
    // non-reordered ablation revisits them in ascending block-column
    // order with the diagonal inline, and the backward sweep walks
    // block rows in descending order.
    std::vector<Index> visit(blocks.size());
    for (Index i = 0; i < blocks.size(); ++i)
        visit[i] = i;
    if (symgs && !reorder) {
        std::stable_sort(visit.begin(), visit.end(),
                         [&](Index a, Index b) {
                             const LdBlockInfo &ba = blocks[a];
                             const LdBlockInfo &bb = blocks[b];
                             if (ba.blockRow != bb.blockRow)
                                 return ba.blockRow < bb.blockRow;
                             return ba.blockCol < bb.blockCol;
                         });
    }
    if (symgs && direction == GsSweep::Backward) {
        std::stable_sort(visit.begin(), visit.end(),
                         [&](Index a, Index b) {
                             return blocks[a].blockRow > blocks[b].blockRow;
                         });
    }

    // Each entry is a pure function of its block, so the table fills in
    // parallel into pre-sized slots; slot order is the visit order, the
    // same entries a serial conversion appends.
    table._entries.resize(visit.size());
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(0, visit.size(), [&](size_t i) {
        Index id = visit[i];
        const LdBlockInfo &blk = blocks[id];
        ConfigEntry e;
        e.blockId = id;
        if (!symgs) {
            // Lines 8-12: single-data-path kernels.
            e.dp = kernelDataPath(kernel);
            e.inxIn = blk.blockCol * omega;
            e.inxOut = int64_t(blk.blockRow) * omega;
            e.order = AccessOrder::L2R;
            e.op = OperandPort::Port1;
        } else if (!blk.isDiagonal()) {
            // Lines 14-22: off-diagonal blocks become GEMVs whose
            // results feed the link stack (no cache write).
            e.dp = DataPathType::Gemv;
            e.inxIn = blk.blockCol * omega;
            e.inxOut = -1;
            e.order = AccessOrder::L2R;
            // Chunks already visited this sweep hold current values
            // (x^t, port1); unvisited chunks hold last iteration's
            // (x^{t-1}, port2).  The visited side flips per direction.
            bool updated = direction == GsSweep::Forward
                               ? blk.blockCol < blk.blockRow
                               : blk.blockCol > blk.blockRow;
            e.op = updated ? OperandPort::Port1 : OperandPort::Port2;
        } else {
            // Lines 23-27: the diagonal block is the serialized D-SymGS.
            e.dp = DataPathType::DSymgs;
            e.inxIn = blk.blockRow * omega;
            e.inxOut = int64_t(blk.blockRow) * omega;
            e.order = AccessOrder::R2L;
            e.op = OperandPort::Port2;
        }
        table._entries[i] = e;
    });
    return table;
}

size_t
ConfigTable::bitsPerEntry() const
{
    Index blockRows = std::max<Index>(1, (_n + _omega - 1) / _omega);
    size_t addr = size_t(std::ceil(std::log2(std::max<Index>(2, blockRows))));
    return 2 * addr + 3;
}

size_t
ConfigTable::tableBytes() const
{
    return (bitsPerEntry() * _entries.size() + 7) / 8;
}

Index
ConfigTable::switchCount() const
{
    Index switches = 0;
    for (size_t i = 1; i < _entries.size(); ++i) {
        if (_entries[i].dp != _entries[i - 1].dp)
            ++switches;
    }
    return switches;
}

Index
ConfigTable::countOf(DataPathType dp) const
{
    Index n = 0;
    for (const ConfigEntry &e : _entries) {
        if (e.dp == dp)
            ++n;
    }
    return n;
}


void
ConfigTable::serialize(std::ostream &out) const
{
    bio::writePod<uint8_t>(out, uint8_t(_kernel));
    bio::writePod<uint8_t>(out, uint8_t(_direction));
    bio::writePod<uint8_t>(out, _reordered ? 1 : 0);
    bio::writePod<uint32_t>(out, _omega);
    bio::writePod<uint32_t>(out, _n);
    // Field-by-field, not raw struct memory: ConfigEntry has padding
    // with indeterminate bytes, and serialized tables must be
    // byte-for-byte deterministic across host thread counts.
    bio::writePod<uint64_t>(out, uint64_t(_entries.size()));
    for (const ConfigEntry &e : _entries) {
        bio::writePod<uint8_t>(out, uint8_t(e.dp));
        bio::writePod<uint32_t>(out, e.inxIn);
        bio::writePod<int64_t>(out, e.inxOut);
        bio::writePod<uint8_t>(out, uint8_t(e.order));
        bio::writePod<uint8_t>(out, uint8_t(e.op));
        bio::writePod<uint32_t>(out, e.blockId);
    }
}

uint64_t
ConfigTable::contentHash() const
{
    // Exactly the fields serialize() writes, fed value by value.
    hash::WordHasher h;
    h.field(_kernel);
    h.field(_direction);
    h.field(_reordered);
    h.field(_omega);
    h.field(_n);
    h.field(uint64_t(_entries.size()));
    for (const ConfigEntry &e : _entries) {
        h.field(e.dp);
        h.field(e.inxIn);
        h.field(e.inxOut);
        h.field(e.order);
        h.field(e.op);
        h.field(e.blockId);
    }
    return h.digest();
}

ConfigTable
ConfigTable::deserialize(std::istream &in)
{
    ConfigTable t;
    uint8_t kernel = bio::readPod<uint8_t>(in);
    uint8_t direction = bio::readPod<uint8_t>(in);
    uint8_t reordered = bio::readPod<uint8_t>(in);
    if (kernel > uint8_t(KernelType::PageRank) ||
        direction > uint8_t(GsSweep::Symmetric) || reordered > 1)
        throw std::runtime_error("bad config-table header");
    t._kernel = KernelType(kernel);
    t._direction = GsSweep(direction);
    t._reordered = reordered != 0;
    t._omega = bio::readPod<uint32_t>(in);
    t._n = bio::readPod<uint32_t>(in);
    uint64_t nentries = bio::readPod<uint64_t>(in);
    if (nentries > (uint64_t(1) << 32))
        throw std::runtime_error("binary vector implausibly large");
    t._entries.resize(size_t(nentries));
    for (ConfigEntry &e : t._entries) {
        uint8_t dp = bio::readPod<uint8_t>(in);
        e.inxIn = bio::readPod<uint32_t>(in);
        e.inxOut = bio::readPod<int64_t>(in);
        uint8_t order = bio::readPod<uint8_t>(in);
        uint8_t op = bio::readPod<uint8_t>(in);
        e.blockId = bio::readPod<uint32_t>(in);
        if (dp > uint8_t(DataPathType::DPr) ||
            order > uint8_t(AccessOrder::R2L) ||
            op > uint8_t(OperandPort::Port2))
            throw std::runtime_error("bad config-table entry");
        e.dp = DataPathType(dp);
        e.order = AccessOrder(order);
        e.op = OperandPort(op);
    }
    return t;
}

} // namespace alr
