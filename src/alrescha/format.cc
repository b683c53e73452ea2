#include "alrescha/format.hh"

#include <algorithm>
#include <atomic>

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

/**
 * The stored block columns of one block row at a time, in stream order:
 * every block column with an entry, ascending; the SymGs layout always
 * stores the diagonal block, and stores it last so every block row ends
 * in a D-SymGS data path.  It keeps a slot per block column of the
 * matrix, so each encode worker holds one and reuses it.
 */
class BlockRowColumns
{
  public:
    BlockRowColumns(const CsrMatrix &csr, Index omega, LdLayout layout)
        : _csr(csr), _omega(omega), _layout(layout),
          _slot((csr.cols() + omega - 1) / omega, kNone)
    {
    }

    /** Load block row @p br and return its block columns. */
    const std::vector<Index> &load(Index br)
    {
        for (Index bc : _cols)
            _slot[bc] = kNone;
        _cols.clear();
        auto mark = [&](Index bc) {
            if (_slot[bc] == kNone) {
                _slot[bc] = 0;
                _cols.push_back(bc);
            }
        };
        const Index rLo = br * _omega;
        const Index rHi = std::min<Index>(rLo + _omega, _csr.rows());
        for (Index k = _csr.rowPtr()[rLo]; k < _csr.rowPtr()[rHi]; ++k)
            mark(_csr.colIdx()[k] / _omega);
        if (_layout == LdLayout::SymGs)
            mark(br);
        std::sort(_cols.begin(), _cols.end());
        if (_layout == LdLayout::SymGs) {
            auto diag = std::lower_bound(_cols.begin(), _cols.end(), br);
            std::rotate(diag, diag + 1, _cols.end());
        }
        for (size_t j = 0; j < _cols.size(); ++j)
            _slot[_cols[j]] = Index(j);
        return _cols;
    }

    /** Position of loaded block column @p bc in stream order. */
    Index slot(Index bc) const { return _slot[bc]; }

  private:
    static constexpr Index kNone = ~Index(0);

    const CsrMatrix &_csr;
    const Index _omega;
    const LdLayout _layout;
    std::vector<Index> _slot;
    std::vector<Index> _cols;
};

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
    ld.buildLuts();

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
    const Index blockRows = ld._blockRows;

    // Pass 1: each block row's block count and payload length, then
    // prefix sums place every block row in the final arrays.
    std::vector<size_t> streamBase(blockRows + 1, 0);
    tp.parallelForChunks(0, blockRows, [&](size_t lo, size_t hi) {
        BlockRowColumns columns(csr, omega, layout);
        for (size_t br = lo; br < hi; ++br) {
            const std::vector<Index> &cols = columns.load(Index(br));
            size_t payload = 0;
            for (Index bc : cols)
                payload += payloadSize(layout, bc == br, omega);
            ld._blockRowPtr[br + 1] = Index(cols.size());
            streamBase[br + 1] = payload;
        }
    });
    for (Index br = 0; br < blockRows; ++br) {
        ld._blockRowPtr[br + 1] += ld._blockRowPtr[br];
        streamBase[br + 1] += streamBase[br];
    }

    // Pass 2: every block row writes its descriptors and its zero-filled
    // payload straight into its own slots.  Each block row's output is a
    // pure function of the matrix, so the arrays are byte-identical at
    // any pool size.  A SymGs diagonal block's diagonal lives in
    // diagonal(), not in the stream.
    ld._blocks.resize(ld._blockRowPtr[blockRows]);
    ld._stream.resize(streamBase[blockRows]);
    const auto &rowPtr = csr.rowPtr();
    const auto &colIdx = csr.colIdx();
    const auto &vals = csr.vals();
    tp.parallelForChunks(0, blockRows, [&](size_t lo, size_t hi) {
        BlockRowColumns columns(csr, omega, layout);
        for (size_t b = lo; b < hi; ++b) {
            const Index br = Index(b);
            const std::vector<Index> &cols = columns.load(br);
            LdBlockInfo *blks = ld._blocks.data() + ld._blockRowPtr[br];
            size_t offset = streamBase[br];
            for (size_t j = 0; j < cols.size(); ++j) {
                blks[j] = {br, cols[j], offset,
                           payloadSize(layout, cols[j] == br, omega)};
                offset += blks[j].size;
            }
            std::fill(ld._stream.begin() + std::ptrdiff_t(streamBase[br]),
                      ld._stream.begin() + std::ptrdiff_t(offset), 0.0);

            const Index rLo = br * omega;
            const Index rHi = std::min<Index>(rLo + omega, csr.rows());
            for (Index r = rLo; r < rHi; ++r) {
                for (Index k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
                    const Index bc = colIdx[k] / omega;
                    const bool diagBlk = layout == LdLayout::SymGs && bc == br;
                    const Index lr = r - rLo, lc = colIdx[k] - bc * omega;
                    if (diagBlk && lr == lc)
                        continue;
                    const int32_t pos = ld.payloadLut(diagBlk, bc > br)
                        [size_t(lr) * omega + lc];
                    ALR_ASSERT(pos >= 0, "unstorable element");
                    ld._stream[blks[columns.slot(bc)].offset + size_t(pos)] =
                        vals[k];
                }
            }
        }
    });
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
