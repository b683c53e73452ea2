/**
 * @file
 * The public Alrescha API: a memory-mapped accelerator programmed by a
 * host (paper §4, Fig 7).
 *
 * Loading a matrix performs the host's one-time preprocessing: the
 * locally-dense encoding (§4.5) plus the Algorithm 1 conversion into
 * configuration tables.  Kernel calls then execute on the cycle-level
 * engine, returning numerically verified results while the accelerator
 * accumulates timing, traffic and energy telemetry.
 *
 * PCG's BLAS-1 glue (dot products, axpys) runs on the host, mirroring
 * the paper's observation that those kernels are a tiny fraction of
 * runtime; accelerator time covers SpMV and SymGS only.
 */

#ifndef ALR_ALRESCHA_ACCELERATOR_HH
#define ALR_ALRESCHA_ACCELERATOR_HH

#include <memory>
#include <optional>

#include "alrescha/config_table.hh"
#include "alrescha/energy.hh"
#include "alrescha/format.hh"
#include "alrescha/sim/engine.hh"
#include "common/thread_pool.hh"
#include "kernels/graph.hh"
#include "kernels/krylov.hh"
#include "kernels/pcg.hh"
#include "kernels/symgs.hh"

namespace alr {

/** Snapshot of accelerator telemetry after one or more kernel runs. */
struct AccelReport
{
    uint64_t cycles = 0;
    double seconds = 0.0;
    double energyJoules = 0.0;
    EnergyBreakdown energy;
    double bandwidthUtilization = 0.0;
    double cacheTimeFraction = 0.0;
    double sequentialOpFraction = 0.0;
    double reconfigurations = 0.0;
    double bytesFromMemory = 0.0;
};

/**
 * Utilization summary derived from the engine's telemetry: how busy
 * each hardware resource was, where the run sat on the roofline, and
 * the paper's headline fractions (Fig 16 sequential split, the §4.4
 * reconfiguration-overlap claim) as single numbers.
 */
struct UtilizationReport
{
    uint64_t cycles = 0;
    double seconds = 0.0;

    /** Multiply-ALU occupancy: alu_ops / (cycles * omega). */
    double aluOccupancy = 0.0;
    /** Reduce-engine occupancy: reduce_ops / (cycles * (omega - 1)). */
    double treeOccupancy = 0.0;
    /** Useful traffic over the bandwidth-time product (Fig 15). */
    double bandwidthUtilization = 0.0;
    /** Local-cache hit rate: hits / (hits + misses). */
    double cacheHitRate = 0.0;
    /** Fraction of run time the cache port was busy (Fig 18). */
    double cacheTimeFraction = 0.0;

    /** Fig 16 split: sequential (D-SymGS) share of useful FLOPs... */
    double sequentialOpFraction = 0.0;
    /** ...and of modeled cycles (seq / (seq + par)). */
    double sequentialCycleFraction = 0.0;
    /** §4.4 overlap claim: switch config cycles hidden under drain. */
    double reconfigHiddenFraction = 0.0;

    /** Roofline position. */
    double flops = 0.0;
    double dramBytes = 0.0;
    /** flops / dramBytes. */
    double arithmeticIntensity = 0.0;
    double achievedGflops = 0.0;
    /** omega multiplies + (omega - 1) reduce adds per cycle. */
    double peakGflops = 0.0;
    /** Roofline ceiling at this intensity: min(peak, BW * AI). */
    double attainableGflops = 0.0;
};

/** Result of an accelerated graph kernel. */
struct GraphResult
{
    DenseVector values;
    int rounds = 0;
};

class Accelerator
{
  public:
    explicit Accelerator(const AccelParams &params = {},
                         const EnergyParams &energy = {});

    const AccelParams &params() const { return _params; }

    /**
     * Load a square SPD system matrix for PDE work (SymGS, SpMV, PCG).
     * Encodes the SymGs layout and builds the forward/backward SymGS and
     * SpMV configuration tables.
     */
    void loadPde(const CsrMatrix &a);

    /** Load a rectangular/general matrix for standalone SpMV. */
    void loadSpmvOnly(const CsrMatrix &a);

    /**
     * Load a directed, weighted adjacency matrix (A(u,v) = weight of
     * u -> v) for the graph kernels.  The accelerator stores A^T so each
     * output chunk reduces over in-edges.
     */
    void loadGraph(const CsrMatrix &adj);

    /** y = A x on the accelerator. */
    DenseVector spmv(const DenseVector &x);

    /** Y = A X for several right-hand sides; the matrix streams once
     *  per call, amortizing payload over the RHS count. */
    std::vector<DenseVector> spmm(const std::vector<DenseVector> &xs);

    /** One (or one symmetric pair of) Gauss-Seidel sweep(s) in place. */
    void symgsSweep(const DenseVector &b, DenseVector &x, GsSweep sweep);

    /** Full PCG solve with accelerated SpMV + SymGS preconditioner. */
    PcgResult pcg(const DenseVector &b, const PcgOptions &opts = {});

    /** BiCGSTAB with accelerated SpMV (general square systems). */
    KrylovResult bicgstab(const DenseVector &b,
                          const KrylovOptions &opts = {});

    /** GMRES(m) with accelerated SpMV. */
    KrylovResult gmres(const DenseVector &b,
                       const GmresOptions &opts = {});

    /**
     * Sparse triangular solve on the D-SymGS machinery (an extension
     * the data path supports for free): solve L x = b for a *lower*
     * triangular loaded matrix, or U x = b for an *upper* triangular
     * one.  The loaded matrix must be triangular with a non-zero
     * diagonal; a Gauss-Seidel sweep in the matching direction is then
     * exact substitution.
     */
    DenseVector sptrsvLower(const DenseVector &b);
    DenseVector sptrsvUpper(const DenseVector &b);

    /** Hop distances from @p source (D-BFS rounds to fixpoint). */
    GraphResult bfs(Index source);

    /** Shortest paths from @p source (D-SSSP rounds to fixpoint). */
    GraphResult sssp(Index source);

    /** PageRank to tolerance (D-PR rounds). */
    GraphResult pagerank(const PageRankOptions &opts = {});

    /**
     * Connected components by min-label propagation (an extension
     * kernel on the D-BFS path with a zero addend).  For a symmetric
     * adjacency this yields the weakly-connected components, each
     * labeled by its minimum vertex id; for directed graphs labels
     * flow along edge direction.
     */
    GraphResult connectedComponents();

    /** The encoded matrix (for format-level benches/tests). */
    const LocallyDenseMatrix &matrix() const;
    /** The config table for a kernel (panics when not loaded). */
    const ConfigTable &table(KernelType k,
                             GsSweep dir = GsSweep::Forward) const;

    Engine &engine() { return _engine; }
    const Engine &engine() const { return _engine; }

    /** Telemetry accumulated since the last resetStats(). */
    AccelReport report() const;
    /** Resource-occupancy / roofline view of the same telemetry. */
    UtilizationReport utilization() const;
    void resetStats() { _engine.reset(); }

  private:
    void requireLoaded() const;
    GraphResult relaxToFixpoint(const ConfigTable &table,
                                DenseVector init, bool labels);
    AccelParams _params;
    EnergyModel _energyModel;
    Engine _engine;

    std::unique_ptr<LocallyDenseMatrix> _ld;
    std::unique_ptr<ConfigTable> _spmvTable;
    std::unique_ptr<ConfigTable> _symgsFwd;
    std::unique_ptr<ConfigTable> _symgsBwd;
    std::unique_ptr<ConfigTable> _bfsTable;
    std::unique_ptr<ConfigTable> _ssspTable;
    std::unique_ptr<ConfigTable> _prTable;
    std::vector<Index> _outDegrees;
};

} // namespace alr

#endif // ALR_ALRESCHA_ACCELERATOR_HH
