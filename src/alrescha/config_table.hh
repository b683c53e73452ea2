/**
 * @file
 * Kernel-to-data-path conversion (paper §4.1, Algorithm 1, Fig 8).
 *
 * The host converts a sparse kernel over a locally-dense matrix into a
 * configuration table: one row per dense data path giving the path type,
 * the input/output vector-chunk indices (local-cache addresses), the
 * access order (left-to-right or right-to-left) and the operand port
 * (port1 = x^t, port2 = x^{t-1}).  The table is written once through the
 * program interface; no metadata is streamed at runtime.
 *
 * Triangle convention: the paper states its Eq. 1-2 over A^T, so its
 * "upper triangle x^t / lower triangle x^{t-1}" corresponds, in terms of
 * rows of A processed by a forward sweep, to block columns before the
 * diagonal reading the current iterate (port1) and block columns after it
 * reading the previous iterate (port2) -- which is what a mathematically
 * correct Gauss-Seidel forward sweep requires.
 */

#ifndef ALR_ALRESCHA_CONFIG_TABLE_HH
#define ALR_ALRESCHA_CONFIG_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "alrescha/format.hh"
#include "kernels/symgs.hh"

namespace alr {

/** The sparse kernels Alrescha accelerates (paper Table 1). */
enum class KernelType : uint8_t { SpMV, SymGS, BFS, SSSP, PageRank };

/** The dense data paths those kernels decompose into. */
enum class DataPathType : uint8_t { Gemv, DSymgs, DBfs, DSssp, DPr };

/** Streaming access order within a block row. */
enum class AccessOrder : uint8_t { L2R, R2L };

/** Which local-cache port supplies the vector operand. */
enum class OperandPort : uint8_t { Port1, Port2 };

/** Human-readable names (for dumps and benches). */
const char *toString(KernelType k);
const char *toString(DataPathType dp);

/** The dense data path a non-SymGS kernel decomposes into. */
DataPathType kernelDataPath(KernelType k);

/** One row of the configuration table. */
struct ConfigEntry
{
    DataPathType dp = DataPathType::Gemv;
    /** Element index of the input vector chunk (blockCol * omega). */
    Index inxIn = 0;
    /** Element index of the output chunk, or -1 = push to link stack. */
    int64_t inxOut = -1;
    AccessOrder order = AccessOrder::L2R;
    OperandPort op = OperandPort::Port1;
    /** Index into LocallyDenseMatrix::blocks() this path consumes. */
    Index blockId = 0;
};

/**
 * A fully converted kernel: the data-path sequence plus the sizing
 * needed to account for the table's hardware footprint.
 */
class ConfigTable
{
  public:
    /**
     * Run Algorithm 1.  @p reorder keeps the paper's data-path
     * reordering (all GEMVs of a block row, then its D-SymGS); when
     * false the paths follow ascending block-column order with the
     * diagonal inline, which multiplies the number of data-path switches
     * (the reordering ablation).
     *
     * Each table entry depends only on its own block, so entries are
     * filled in parallel on @p pool (nullptr = the process-wide pool)
     * into pre-sized slots; the result is identical to a serial
     * conversion for any thread count.
     */
    static ConfigTable convert(KernelType kernel,
                               const LocallyDenseMatrix &ld,
                               bool reorder = true,
                               GsSweep direction = GsSweep::Forward,
                               ThreadPool *pool = nullptr);

    KernelType kernel() const { return _kernel; }
    /** Sweep direction (meaningful for SymGS tables only). */
    GsSweep direction() const { return _direction; }
    /**
     * True when the paper's data-path reordering was applied.  Only
     * reordered SymGS tables are executable: the link stack requires
     * every GEMV of a block row to precede its D-SymGS.
     */
    bool reordered() const { return _reordered; }
    Index omega() const { return _omega; }
    Index n() const { return _n; }

    const std::vector<ConfigEntry> &entries() const { return _entries; }

    /** Bits per table row: 2*ceil(log2(n/omega)) + 3 (paper §4.1). */
    size_t bitsPerEntry() const;
    /** Total table footprint in bytes. */
    size_t tableBytes() const;

    /** Number of adjacent entries whose data-path type differs. */
    Index switchCount() const;
    /** Number of entries of the given type. */
    Index countOf(DataPathType dp) const;

    /** Binary (de)serialization for the program image (§4, Fig 7). */
    void serialize(std::ostream &out) const;
    /** Throws std::runtime_error on malformed input. */
    static ConfigTable deserialize(std::istream &in);

    /**
     * 64-bit digest of the fields serialize() writes (see
     * LocallyDenseMatrix::contentHash()): the restart-stable identity
     * the persisted schedule cache keys on.
     */
    uint64_t contentHash() const;

    /**
     * Monotonic identity of this conversion (see
     * LocallyDenseMatrix::generation()): schedule caches key on this
     * so a table rebuilt in place -- or reallocated at a recycled
     * address -- never replays a schedule compiled from its
     * predecessor.
     */
    uint64_t generation() const { return _generation; }

  private:
    KernelType _kernel = KernelType::SpMV;
    GsSweep _direction = GsSweep::Forward;
    bool _reordered = true;
    Index _omega = 0;
    Index _n = 0;
    std::vector<ConfigEntry> _entries;
    uint64_t _generation = detail::nextObjectGeneration();
};

} // namespace alr

#endif // ALR_ALRESCHA_CONFIG_TABLE_HH
