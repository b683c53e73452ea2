/**
 * @file
 * Alrescha hardware configuration (paper Table 5) plus the model knobs the
 * ablation benches sweep.
 */

#ifndef ALR_ALRESCHA_PARAMS_HH
#define ALR_ALRESCHA_PARAMS_HH

#include <cstdint>

#include "sparse/types.hh"

namespace alr {

/**
 * Replay ISA selection for the scheduled functional pass.  Auto picks
 * the widest compiled-in ISA the machine executes (cpuid/HWCAP,
 * overridable via the ALR_SIMD_FORCE environment variable); Scalar
 * forces the portable kernels on any build; a forced ISA that was not
 * compiled in or is not executable falls back down the chain
 * (avx512 -> avx2 -> sse2 -> neon -> scalar), never crashes.  Every
 * choice is bit-identical -- the kernels share one canonical
 * reduction tree -- so the mode is purely a wall-clock knob.
 */
enum class SimdMode : uint8_t
{
    Auto,
    Scalar,
    Sse2,
    Avx2,
    Avx512,
    Neon,
};

/**
 * Accelerator configuration.  Defaults reproduce Table 5: double
 * precision, 2.5 GHz, 1 KB local cache with 64 B lines at 4 cycles,
 * 3-cycle ALUs, 3-cycle sum / 1-cycle min reduce engines, 12 GB GDDR5 at
 * 288 GB/s, and the paper's chosen block width of 8 (§5.2).
 */
struct AccelParams
{
    /** Block width: the FCU has omega multiplier ALUs. */
    Index omega = 8;

    /** Core clock in GHz. */
    double clockGhz = 2.5;

    /** Streaming memory bandwidth in GB/s (GDDR5). */
    double memBandwidthGBs = 288.0;

    /** Extra DRAM latency charged on a local-cache miss, in cycles. */
    int dramLatency = 75;

    /** Local cache geometry and access latency. */
    uint32_t cacheBytes = 1024;
    uint32_t cacheLineBytes = 64;
    int cacheLatency = 4;

    /** Compute latencies (cycles). */
    int aluLatency = 3;
    int reSumLatency = 3;
    int reMinLatency = 1;
    /** RCU processing-element latency (LUT subtract/divide stages). */
    int peLatency = 3;

    /**
     * Cycles to rewrite the RCU configurable switch when changing data
     * paths.  The engine overlaps this with draining the reduction tree,
     * so the default is fully hidden; the reconfiguration ablation raises
     * it past the drain time.
     */
    int configCycles = 8;

    /**
     * Reorder data paths so all GEMVs of a block row run before its
     * D-SymGS (the paper's reordering, §4.1).  Disabled by the
     * reordering ablation to count the extra switches.
     */
    bool reorderDataPaths = true;

    /**
     * Skip streaming all-zero rows inside locally-dense blocks.  The
     * block layout is fixed at programming time, so an omega-bit
     * row-occupancy mask per block (config-table metadata, never
     * streamed) lets the memory controller fetch only occupied rows.
     * Essential for the low-fill blocks of power-law graphs; the
     * ablation bench disables it to quantify the dense-streaming cost.
     */
    bool skipEmptyBlockRows = true;

    /**
     * Drive graph relaxations by the frontier (Table 1's "frontier
     * vector"): rounds skip every block whose source chunk saw no
     * update in the previous round.  Disabled by the frontier ablation
     * to quantify the dense-round cost on high-diameter graphs.
     */
    bool frontierSkipping = true;

    /**
     * Worker threads for the host work: the preprocessing pipeline
     * (locally-dense encoding, Algorithm 1 conversion, schedule
     * compilation) and the functional passes of SpMV and SpMM over
     * independent GEMV block-row groups.  0 uses the process-wide pool
     * sized by the ALR_THREADS environment variable (or hardware
     * concurrency); a positive value gives the engine a private pool of
     * that size (Engine::hostPool), and 1 runs inline.  Results are
     * thread-count independent (block-row groups touch disjoint output
     * rows; the timing walk is always serial).
     */
    int hostThreads = 0;

    /**
     * Replay ISA for the scheduled functional pass (alr_sim --simd=).
     * Dispatch happens once, at schedule-compile time: the selected
     * kernel table's entry points are stamped into the ExecSchedule.
     * Every mode is bit-for-bit identical (shared canonical reduction
     * tree); the knob exists for the abl_schedule ISA sweep, for
     * forcing the portable path, and for debugging.
     */
    SimdMode simdMode = SimdMode::Auto;

    /** Bytes the memory system delivers per core cycle. */
    double bytesPerCycle() const { return memBandwidthGBs / clockGhz; }

    /** Seconds per cycle. */
    double secondsPerCycle() const { return 1e-9 / clockGhz; }

    /** Reduction-tree depth: log2(omega) levels of reduce engines. */
    int treeDepth() const
    {
        int depth = 0;
        for (Index w = 1; w < omega; w <<= 1)
            ++depth;
        return depth;
    }

    /** Pipeline fill latency of ALU + sum-reduce tree. */
    int pipelineDepth() const
    {
        return aluLatency + treeDepth() * reSumLatency;
    }

    /** Cycles to drain the reduction tree when switching data paths. */
    int drainCycles() const { return pipelineDepth(); }
};

} // namespace alr

#endif // ALR_ALRESCHA_PARAMS_HH
