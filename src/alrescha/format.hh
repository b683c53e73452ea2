/**
 * @file
 * Alrescha's locally-dense storage format (paper §4.5, Fig 13).
 *
 * The format adapts BCSR (same metadata budget: one pointer per block row,
 * one column index per stored block) but re-arranges payload so the memory
 * stream arrives in exactly the order the compute engine consumes it:
 *
 * - Block order: within a block row, all off-diagonal blocks first
 *   (ascending block column), then the diagonal block last (SymGS layout).
 * - In-block value order (SymGS layout):
 *     - lower-triangle blocks (bc < br): row-major, left-to-right;
 *     - upper-triangle blocks (bc > br): row-major with each row reversed
 *       ("stored in the opposite order of their original locations");
 *     - diagonal blocks: the diagonal element of each row is excluded
 *       (stored separately, §4.5 "The Diagonal Elements") and the
 *       remaining row is stored right-to-left, matching the r2l access
 *       order in the configuration table (Fig 8) and the shift-register
 *       operand rotation of the D-SymGS data path (Fig 10).
 * - Plain layout (SpMV / graph kernels): blocks row-major, values
 *   row-major left-to-right, diagonal kept in place.
 *
 * Blocks are stored dense, so streamed bytes exceed useful payload by the
 * in-block fill factor -- the bandwidth-utilization effect of Fig 15.
 */

#ifndef ALR_ALRESCHA_FORMAT_HH
#define ALR_ALRESCHA_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sparse/csr.hh"

namespace alr {

class ThreadPool;

namespace detail {
/**
 * Process-wide monotonic generation counter for cache-keyed objects
 * (locally-dense matrices, configuration tables).  Each freshly built
 * object takes the next value, so a consumer keyed on generations can
 * never confuse a freed-and-reallocated object at a recycled address
 * with the one it compiled against -- pointer identity can alias,
 * generations cannot.
 */
uint64_t nextObjectGeneration();
} // namespace detail

/** Which payload arrangement the matrix was encoded with. */
enum class LdLayout { Plain, SymGs };

/** Descriptor of one stored block, in stream order. */
struct LdBlockInfo
{
    Index blockRow = 0;
    Index blockCol = 0;
    /** Offset of the block payload within stream(). */
    size_t offset = 0;
    /** Payload length: LocallyDenseMatrix::payloadSize. */
    Index size = 0;

    bool isDiagonal() const { return blockRow == blockCol; }
};

/**
 * A sparse matrix encoded in the Alrescha locally-dense format.
 *
 * stream() is the exact byte order the accelerator reads from memory;
 * blocks() describe it.  The block descriptors correspond to the
 * configuration-table metadata that is programmed once and never
 * streamed (§4.5 "Meta Data").
 */
class LocallyDenseMatrix
{
  public:
    LocallyDenseMatrix() = default;

    /**
     * Encode @p csr with block width @p omega in the given layout.
     *
     * Two parallel passes over block rows on @p pool (nullptr = the
     * process-wide pool, sized by ALR_THREADS): the first sizes each
     * block row, and after a prefix sum the second writes its blocks
     * and payload in place, so the result is bit-for-bit identical to
     * a single-thread encode (docs/FORMAT.md "Encoder").
     */
    static LocallyDenseMatrix encode(const CsrMatrix &csr, Index omega,
                                     LdLayout layout,
                                     ThreadPool *pool = nullptr);

    /** Reconstruct the logical matrix (round-trip identity with encode). */
    CsrMatrix decode() const;

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    Index omega() const { return _omega; }
    LdLayout layout() const { return _layout; }
    Index blockRows() const { return _blockRows; }

    const std::vector<LdBlockInfo> &blocks() const { return _blocks; }
    /** Payload stream in consumption order; 64-byte-aligned storage so
     *  chunk-granular consumers can load it at full ω width. */
    const AlignedValueVector &stream() const { return _stream; }

    /** Separated diagonal (SymGs layout only; rows() entries). */
    const DenseVector &diagonal() const { return _diag; }

    /**
     * Logical value A(blockRow*omega + lr, blockCol*omega + lc) for a
     * stored block, decoding the in-block ordering.  For SymGs diagonal
     * blocks lr == lc returns the separated diagonal value.
     *
     * A thin wrapper over the precomputed payload-position LUTs; hot
     * loops (the schedule compiler) should grab payloadLut() once per
     * block and index it directly instead of paying the per-element
     * branching here.
     */
    Value blockValue(const LdBlockInfo &blk, Index lr, Index lc) const;

    /**
     * Precomputed omega x omega payload-position table for one in-block
     * ordering case: entry [lr * omega + lc] is the payload offset of
     * logical element (lr, lc) relative to the block's stream offset,
     * or -1 when the element lives in the separated diagonal.
     *
     * @p diag_block selects the SymGs diagonal-block ordering (only
     * meaningful for SymGs layout); @p upper the reversed-row ordering
     * of upper-triangle blocks.  All four cases agree with
     * payloadPosition() by construction.
     */
    const int32_t *payloadLut(bool diag_block, bool upper) const
    {
        return diag_block ? _lutDiag.data()
                          : _lutOff[upper ? 1 : 0].data();
    }

    /** Number of represented (logical) non-zeros. */
    Index scalarNnz() const { return _nnz; }

    /**
     * Monotonic identity of this encoding, taken at construction and
     * carried by assignment.  Schedule caches key on this instead of
     * the object address: re-encoding into the same object (or a new
     * object reallocated at a recycled address) yields a new
     * generation, so a stale compiled schedule can never be replayed.
     */
    uint64_t generation() const { return _generation; }

    /** Metadata bytes: block-row pointers + block-column indices. */
    size_t metadataBytes() const;

    /** Bytes streamed from memory per pass over the matrix. */
    size_t streamBytes() const { return _stream.size() * sizeof(Value); }

    /** Useful payload / streamed payload: the Fig 15 utilization bound. */
    double blockDensity() const;

    /** Binary (de)serialization for the program image (§4, Fig 7). */
    void serialize(std::ostream &out) const;
    /** Throws std::runtime_error on malformed input. */
    static LocallyDenseMatrix deserialize(std::istream &in);

    /**
     * 64-bit digest (hash::WordHasher) of the fields serialize()
     * writes, read from the live arrays: a content identity that --
     * unlike generation() -- survives process restarts, so the
     * persisted schedule cache can key on it.  Two encodings with
     * identical serialized forms hash equal.
     */
    uint64_t contentHash() const;

    /**
     * Payload position of in-block element (lr, lc) under the format's
     * ordering rules, or -1 when the element lives in the separated
     * diagonal.  The payload-position LUTs are built from it.
     */
    static int64_t payloadPosition(LdLayout layout, bool diagonal,
                                   bool upper, Index omega, Index lr,
                                   Index lc);

    /**
     * Payload length of one stored block under the format's rules:
     * omega^2, or omega * (omega - 1) for a SymGs-layout diagonal
     * block, whose diagonal lives in diagonal().  Every block's
     * LdBlockInfo::size is this: the encoder writes it and
     * deserialize() enforces it.
     */
    static Index payloadSize(LdLayout layout, bool diagonal, Index omega);

  private:
    /** Build the payload-position LUTs from payloadPosition(). */
    void buildLuts();

    Index _rows = 0;
    Index _cols = 0;
    Index _omega = 0;
    Index _blockRows = 0;
    Index _nnz = 0;
    LdLayout _layout = LdLayout::Plain;
    std::vector<LdBlockInfo> _blocks;
    std::vector<Index> _blockRowPtr;
    AlignedValueVector _stream;
    DenseVector _diag;
    /** Payload-position LUTs: off-diagonal [non-upper, upper] + diag. */
    std::vector<int32_t> _lutOff[2];
    std::vector<int32_t> _lutDiag;
    uint64_t _generation = detail::nextObjectGeneration();
};

} // namespace alr

#endif // ALR_ALRESCHA_FORMAT_HH
