#include "alrescha/format.hh"

#include <algorithm>
#include <atomic>
#include <map>

#include "common/binary_io.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sparse/coo.hh"

namespace alr {

namespace detail {

uint64_t
nextObjectGeneration()
{
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace detail

int64_t
LocallyDenseMatrix::payloadPosition(LdLayout layout, bool diagonal,
                                    bool upper, Index omega, Index lr,
                                    Index lc)
{
    if (layout == LdLayout::Plain)
        return int64_t(lr) * omega + lc;
    if (!diagonal) {
        if (upper)
            return int64_t(lr) * omega + (omega - 1 - lc);
        return int64_t(lr) * omega + lc;
    }
    // SymGs diagonal block: diagonal element excluded; the remaining row
    // is stored right-to-left (r2l access order, Fig 8/10).
    if (lr == lc)
        return -1;
    Index in_row = lc > lr ? (omega - 1 - lc) : (omega - 2 - lc);
    return int64_t(lr) * (omega - 1) + in_row;
}

Index
LocallyDenseMatrix::payloadSize(LdLayout layout, bool diagonal, Index omega)
{
    return layout == LdLayout::SymGs && diagonal ? omega * (omega - 1)
                                                 : omega * omega;
}

namespace {

int64_t
payloadPos(LdLayout layout, bool diagonal, bool upper, Index omega,
           Index lr, Index lc)
{
    return LocallyDenseMatrix::payloadPosition(layout, diagonal, upper,
                                               omega, lr, lc);
}

/** One block row's encoded blocks, offsets relative to its own stream. */
struct RowChunk
{
    std::vector<LdBlockInfo> blocks;
    std::vector<Value> stream;
};

RowChunk
encodeBlockRow(const CsrMatrix &csr, Index omega, LdLayout layout,
               Index br)
{
    const auto &rowPtr = csr.rowPtr();
    const auto &colIdx = csr.colIdx();
    const auto &vals = csr.vals();

    // Collect the non-empty blocks of this block row.
    std::map<Index, std::vector<Triplet>> byBlockCol;
    Index rLo = br * omega;
    Index rHi = std::min<Index>(rLo + omega, csr.rows());
    for (Index r = rLo; r < rHi; ++r) {
        for (Index k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
            Index bc = colIdx[k] / omega;
            byBlockCol[bc].push_back(
                {r - rLo, colIdx[k] - bc * omega, vals[k]});
        }
    }
    // SymGs layout always materializes the diagonal block so every
    // block row ends in a D-SymGS data path.
    if (layout == LdLayout::SymGs)
        byBlockCol[br];

    // Emit off-diagonal blocks in ascending column order, then the
    // diagonal block (SymGs layout), or plain ascending order.
    std::vector<Index> order;
    for (const auto &[bc, ents] : byBlockCol) {
        if (layout == LdLayout::SymGs && bc == br)
            continue;
        order.push_back(bc);
    }
    if (layout == LdLayout::SymGs)
        order.push_back(br);

    RowChunk chunk;
    for (Index bc : order) {
        LdBlockInfo blk;
        blk.blockRow = br;
        blk.blockCol = bc;
        blk.offset = chunk.stream.size();
        bool diagBlk = layout == LdLayout::SymGs && bc == br;
        blk.size = LocallyDenseMatrix::payloadSize(layout, bc == br, omega);
        chunk.stream.resize(chunk.stream.size() + blk.size, 0.0);
        for (const Triplet &t : byBlockCol[bc]) {
            if (diagBlk && t.row == t.col)
                continue; // lives in the separated diagonal
            int64_t pos = payloadPos(layout, diagBlk, bc > br, omega,
                                     t.row, t.col);
            ALR_ASSERT(pos >= 0, "unstorable element");
            chunk.stream[blk.offset + size_t(pos)] = t.val;
        }
        chunk.blocks.push_back(blk);
    }
    return chunk;
}

} // namespace

LocallyDenseMatrix
LocallyDenseMatrix::encode(const CsrMatrix &csr, Index omega,
                           LdLayout layout, ThreadPool *pool)
{
    ALR_ASSERT(omega > 0, "block width must be positive");
    if (layout == LdLayout::SymGs) {
        ALR_ASSERT(csr.rows() == csr.cols(),
                   "SymGs layout requires a square matrix");
    }

    LocallyDenseMatrix ld;
    ld._rows = csr.rows();
    ld._cols = csr.cols();
    ld._omega = omega;
    ld._layout = layout;
    ld._nnz = csr.nnz();
    ld._blockRows = (csr.rows() + omega - 1) / omega;
    ld._blockRowPtr.assign(ld._blockRows + 1, 0);

    if (layout == LdLayout::SymGs) {
        ld._diag.assign(csr.rows(), 0.0);
        DenseVector diag = csr.diagonal();
        for (Index r = 0; r < csr.rows(); ++r) {
            ALR_ASSERT(diag[r] != 0.0, "SymGs needs non-zero diagonal "
                       "(row %u)", r);
            ld._diag[r] = diag[r];
        }
    }

    ThreadPool &tp = pool ? *pool : ThreadPool::global();

    // Block rows are independent: encode each into its own chunk, then
    // merge in block-row order.  With one thread the chunks are built
    // and appended in exactly the serial order, so the merged arrays
    // are bit-for-bit what the historical serial loop produced.
    std::vector<RowChunk> chunks(ld._blockRows);
    tp.parallelFor(0, ld._blockRows, [&](size_t br) {
        chunks[br] = encodeBlockRow(csr, omega, layout, Index(br));
    });

    // Prefix sums give every chunk its slot in the final arrays.
    std::vector<size_t> blockBase(ld._blockRows + 1, 0);
    std::vector<size_t> streamBase(ld._blockRows + 1, 0);
    for (Index br = 0; br < ld._blockRows; ++br) {
        blockBase[br + 1] = blockBase[br] + chunks[br].blocks.size();
        streamBase[br + 1] = streamBase[br] + chunks[br].stream.size();
        ld._blockRowPtr[br + 1] = Index(blockBase[br + 1]);
    }

    ld._blocks.resize(blockBase[ld._blockRows]);
    ld._stream.resize(streamBase[ld._blockRows]);
    tp.parallelFor(0, ld._blockRows, [&](size_t br) {
        RowChunk &chunk = chunks[br];
        for (size_t i = 0; i < chunk.blocks.size(); ++i) {
            LdBlockInfo blk = chunk.blocks[i];
            blk.offset += streamBase[br];
            ld._blocks[blockBase[br] + i] = blk;
        }
        std::copy(chunk.stream.begin(), chunk.stream.end(),
                  ld._stream.begin() + std::ptrdiff_t(streamBase[br]));
    });
    ld.buildLuts();
    return ld;
}

CsrMatrix
LocallyDenseMatrix::decode() const
{
    CooMatrix coo(_rows, _cols);
    for (const LdBlockInfo &blk : _blocks) {
        for (Index lr = 0; lr < _omega; ++lr) {
            Index r = blk.blockRow * _omega + lr;
            if (r >= _rows)
                break;
            for (Index lc = 0; lc < _omega; ++lc) {
                Index c = blk.blockCol * _omega + lc;
                if (c >= _cols)
                    continue;
                Value v = blockValue(blk, lr, lc);
                if (v != 0.0)
                    coo.add(r, c, v);
            }
        }
    }
    return CsrMatrix::fromCoo(coo);
}

void
LocallyDenseMatrix::buildLuts()
{
    size_t n = size_t(_omega) * _omega;
    _lutOff[0].resize(n);
    _lutOff[1].resize(n);
    _lutDiag.resize(n);
    for (Index lr = 0; lr < _omega; ++lr) {
        for (Index lc = 0; lc < _omega; ++lc) {
            size_t i = size_t(lr) * _omega + lc;
            _lutOff[0][i] = int32_t(
                payloadPos(_layout, false, false, _omega, lr, lc));
            _lutOff[1][i] = int32_t(
                payloadPos(_layout, false, true, _omega, lr, lc));
            // Plain layout has no separated diagonal; its "diagonal"
            // table is the ordinary row-major one.
            _lutDiag[i] = int32_t(payloadPos(
                _layout, _layout == LdLayout::SymGs, false, _omega, lr,
                lc));
        }
    }
}

Value
LocallyDenseMatrix::blockValue(const LdBlockInfo &blk, Index lr,
                               Index lc) const
{
    ALR_ASSERT(lr < _omega && lc < _omega, "in-block index out of range");
    bool diagBlk = _layout == LdLayout::SymGs && blk.isDiagonal();
    int32_t pos = payloadLut(diagBlk, blk.blockCol > blk.blockRow)
        [size_t(lr) * _omega + lc];
    if (pos < 0) {
        Index r = blk.blockRow * _omega + lr;
        return r < _rows ? _diag[r] : 0.0;
    }
    return _stream[blk.offset + size_t(pos)];
}

size_t
LocallyDenseMatrix::metadataBytes() const
{
    return _blockRowPtr.size() * sizeof(Index) +
           _blocks.size() * sizeof(Index);
}

double
LocallyDenseMatrix::blockDensity() const
{
    if (_stream.empty())
        return 0.0;
    size_t slots = _stream.size() +
                   (_layout == LdLayout::SymGs ? _rows : 0);
    return double(_nnz) / double(slots);
}

void
LocallyDenseMatrix::serialize(std::ostream &out) const
{
    bio::writePod<uint32_t>(out, _rows);
    bio::writePod<uint32_t>(out, _cols);
    bio::writePod<uint32_t>(out, _omega);
    bio::writePod<uint32_t>(out, _blockRows);
    bio::writePod<uint32_t>(out, _nnz);
    bio::writePod<uint8_t>(out, uint8_t(_layout));
    // Block descriptors are written field by field rather than as raw
    // struct memory: LdBlockInfo has padding whose bytes are
    // indeterminate, and the serialized form must be byte-for-byte
    // deterministic (the parallel-encode tests compare it directly).
    bio::writePod<uint64_t>(out, uint64_t(_blocks.size()));
    for (const LdBlockInfo &blk : _blocks) {
        bio::writePod<uint32_t>(out, blk.blockRow);
        bio::writePod<uint32_t>(out, blk.blockCol);
        bio::writePod<uint64_t>(out, uint64_t(blk.offset));
        bio::writePod<uint32_t>(out, blk.size);
    }
    bio::writeVec(out, _blockRowPtr);
    bio::writeVec(out, _stream);
    bio::writeVec(out, _diag);
}

uint64_t
LocallyDenseMatrix::contentHash() const
{
    // Exactly the fields serialize() writes, fed value by value.
    hash::WordHasher h;
    h.field(_rows);
    h.field(_cols);
    h.field(_omega);
    h.field(_blockRows);
    h.field(_nnz);
    h.field(_layout);
    h.field(uint64_t(_blocks.size()));
    for (const LdBlockInfo &blk : _blocks) {
        h.field(blk.blockRow);
        h.field(blk.blockCol);
        h.field(blk.offset);
        h.field(blk.size);
    }
    h.array(_blockRowPtr);
    h.array(_stream);
    h.array(_diag);
    return h.digest();
}

LocallyDenseMatrix
LocallyDenseMatrix::deserialize(std::istream &in)
{
    LocallyDenseMatrix ld;
    ld._rows = bio::readPod<uint32_t>(in);
    ld._cols = bio::readPod<uint32_t>(in);
    ld._omega = bio::readPod<uint32_t>(in);
    ld._blockRows = bio::readPod<uint32_t>(in);
    ld._nnz = bio::readPod<uint32_t>(in);
    uint8_t layout = bio::readPod<uint8_t>(in);
    if (layout > uint8_t(LdLayout::SymGs))
        throw std::runtime_error("bad layout tag");
    ld._layout = LdLayout(layout);
    uint64_t nblocks = bio::readPod<uint64_t>(in);
    if (nblocks > (uint64_t(1) << 32))
        throw std::runtime_error("binary vector implausibly large");
    ld._blocks.resize(size_t(nblocks));
    for (LdBlockInfo &blk : ld._blocks) {
        blk.blockRow = bio::readPod<uint32_t>(in);
        blk.blockCol = bio::readPod<uint32_t>(in);
        blk.offset = size_t(bio::readPod<uint64_t>(in));
        blk.size = bio::readPod<uint32_t>(in);
    }
    ld._blockRowPtr = bio::readVec<Index>(in);
    DenseVector stream = bio::readVec<Value>(in);
    ld._stream.assign(stream.begin(), stream.end());
    ld._diag = bio::readVec<Value>(in);
    if (ld._omega == 0 || ld._blockRowPtr.size() != ld._blockRows + 1)
        throw std::runtime_error("inconsistent locally-dense header");
    for (const LdBlockInfo &blk : ld._blocks) {
        if (blk.size != payloadSize(ld._layout, blk.isDiagonal(), ld._omega))
            throw std::runtime_error("block payload size breaks its layout");
        if (blk.offset + blk.size > ld._stream.size())
            throw std::runtime_error("block outside payload stream");
    }
    ld.buildLuts();
    return ld;
}

} // namespace alr
