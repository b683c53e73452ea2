/**
 * @file
 * The reference engine: the configuration-table interpreter the
 * equivalence suites compare the scheduled engine against, for every
 * kernel -- SpMV, SpMM, SymGS and the graph rounds (the graph oracle).
 *
 * It walks the table entry by entry, decodes every element through
 * LocallyDenseMatrix::blockValue and reduces each row on the FCU --
 * the most literal reading of the timing model, charging every term
 * explicitly, with no compiled state or shared walker to get wrong.  It charges a real Engine's memory, FCU, RCU and
 * stat tree and ends every run in Engine::commitRun, so results,
 * RunTiming, stat dumps, profile buckets and modeled timeline events
 * all compare bit for bit against the engine's own runs.
 *
 * Test-only: the library builds with the tests and links into no
 * tool, bench or example.
 */

#ifndef ALR_TESTS_REFERENCE_ENGINE_HH
#define ALR_TESTS_REFERENCE_ENGINE_HH

#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/engine.hh"
#include "alrescha/sim/profile.hh"

namespace alr {

class ReferenceEngine
{
  public:
    /** Interpret on @p engine's timing state and stats; the engine
     *  must outlive the reference. */
    explicit ReferenceEngine(Engine &engine);

    /** Attach the streamed matrix and its configuration table. */
    void program(const LocallyDenseMatrix *ld, const ConfigTable *table);

    /** Engine::runSpmv, interpreted. */
    DenseVector runSpmv(const DenseVector &x, RunTiming *timing = nullptr);

    /** Engine::runSpmm, interpreted. */
    std::vector<DenseVector> runSpmm(const std::vector<DenseVector> &xs,
                                     RunTiming *timing = nullptr);

    /** Engine::runSymgsSweep, interpreted. */
    void runSymgsSweep(const DenseVector &b, DenseVector &x,
                       RunTiming *timing = nullptr);

    /** Engine::runRelaxRound (runLabelRound when @p zero_addend),
     *  interpreted; @p active_chunks is the frontier mask or nullptr. */
    DenseVector runRelaxRound(const DenseVector &dist, bool zero_addend,
                              const std::vector<uint8_t> *active_chunks,
                              RunTiming *timing = nullptr);

    /** Engine::runPrRound, interpreted. */
    DenseVector runPrRound(const DenseVector &rank,
                           const std::vector<Index> &outdeg,
                           RunTiming *timing = nullptr);

  private:
    uint64_t streamBlockCycles(const LdBlockInfo &blk) const;
    uint64_t streamRowsCycles(Index rows_streamed) const;
    /** Stream a GEMV-class block's payload: @p occupied rows when
     *  empty rows are skipped, else the whole block. */
    void chargeStream(const LdBlockInfo &blk, Index occupied,
                      DataPathType dp, profile::RunScope &prof,
                      RunTiming &t);

    Engine &_engine;
    const AccelParams &_params;
    MemoryModel &_memory;
    Fcu &_fcu;
    Rcu &_rcu;

    const LocallyDenseMatrix *_ld = nullptr;
    const ConfigTable *_table = nullptr;
};

/** The full serialized stat listing of @p engine: what the equivalence
 *  suites compare byte for byte. */
std::string statDump(const Engine &engine);

/**
 * Accelerator::spmv, symgsSweep and pcg on a loaded @p acc, with every
 * run interpreted on acc.engine(): the accelerator's report,
 * utilization and stat dump then describe the reference runs.
 */
DenseVector referenceSpmv(Accelerator &acc, const DenseVector &x);
void referenceSymgsSweep(Accelerator &acc, const DenseVector &b,
                         DenseVector &x, GsSweep sweep);
PcgResult referencePcg(Accelerator &acc, const DenseVector &b,
                       const PcgOptions &opts = {});

} // namespace alr

#endif // ALR_TESTS_REFERENCE_ENGINE_HH
