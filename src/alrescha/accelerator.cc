#include "alrescha/accelerator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/blas1.hh"

namespace alr {

Accelerator::Accelerator(const AccelParams &params,
                         const EnergyParams &energy)
    : _params(params), _energyModel(energy), _engine(params)
{
}

void
Accelerator::requireLoaded() const
{
    ALR_ASSERT(_ld != nullptr, "no matrix loaded");
}

void
Accelerator::loadPde(const CsrMatrix &a)
{
    if (a.rows() != a.cols())
        fatal("PDE systems are square");
    // The previous matrix/tables are about to be destroyed; schedules
    // are keyed on their identity, so drop them before the addresses
    // can be recycled.
    _engine.invalidateSchedules();
    ThreadPool *pool = &_engine.hostPool();
    _ld = std::make_unique<LocallyDenseMatrix>(LocallyDenseMatrix::encode(
        a, _params.omega, LdLayout::SymGs, pool));
    bool reorder = _params.reorderDataPaths;
    _symgsFwd = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::SymGS, *_ld, reorder, GsSweep::Forward, pool));
    _symgsBwd = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::SymGS, *_ld, reorder, GsSweep::Backward, pool));
    _spmvTable = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::SpMV, *_ld, true, GsSweep::Forward, pool));
    _bfsTable.reset();
    _ssspTable.reset();
    _prTable.reset();
    _outDegrees.clear();
}

void
Accelerator::loadSpmvOnly(const CsrMatrix &a)
{
    _engine.invalidateSchedules();
    ThreadPool *pool = &_engine.hostPool();
    _ld = std::make_unique<LocallyDenseMatrix>(LocallyDenseMatrix::encode(
        a, _params.omega, LdLayout::Plain, pool));
    _spmvTable = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::SpMV, *_ld, true, GsSweep::Forward, pool));
    _symgsFwd.reset();
    _symgsBwd.reset();
    _bfsTable.reset();
    _ssspTable.reset();
    _prTable.reset();
    _outDegrees.clear();
}

void
Accelerator::loadGraph(const CsrMatrix &adj)
{
    if (adj.rows() != adj.cols())
        fatal("adjacency must be square");
    _engine.invalidateSchedules();
    _outDegrees = outDegrees(adj);
    CsrMatrix adjT = adj.transposed();
    ThreadPool *pool = &_engine.hostPool();
    _ld = std::make_unique<LocallyDenseMatrix>(LocallyDenseMatrix::encode(
        adjT, _params.omega, LdLayout::Plain, pool));
    _bfsTable = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::BFS, *_ld, true, GsSweep::Forward, pool));
    _ssspTable = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::SSSP, *_ld, true, GsSweep::Forward, pool));
    _prTable = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::PageRank, *_ld, true, GsSweep::Forward, pool));
    _spmvTable = std::make_unique<ConfigTable>(ConfigTable::convert(
        KernelType::SpMV, *_ld, true, GsSweep::Forward, pool));
    _symgsFwd.reset();
    _symgsBwd.reset();
}

DenseVector
Accelerator::spmv(const DenseVector &x)
{
    requireLoaded();
    ALR_ASSERT(_spmvTable != nullptr, "SpMV table not built");
    _engine.program(_ld.get(), _spmvTable.get());
    return _engine.runSpmv(x);
}

std::vector<DenseVector>
Accelerator::spmm(const std::vector<DenseVector> &xs)
{
    requireLoaded();
    ALR_ASSERT(_spmvTable != nullptr, "SpMV table not built");
    _engine.program(_ld.get(), _spmvTable.get());
    return _engine.runSpmm(xs);
}

void
Accelerator::symgsSweep(const DenseVector &b, DenseVector &x,
                        GsSweep sweep)
{
    requireLoaded();
    ALR_ASSERT(_symgsFwd != nullptr, "SymGS tables not built; use loadPde");
    if (sweep == GsSweep::Forward || sweep == GsSweep::Symmetric) {
        _engine.program(_ld.get(), _symgsFwd.get());
        _engine.runSymgsSweep(b, x);
    }
    if (sweep == GsSweep::Backward || sweep == GsSweep::Symmetric) {
        _engine.program(_ld.get(), _symgsBwd.get());
        _engine.runSymgsSweep(b, x);
    }
}

PcgResult
Accelerator::pcg(const DenseVector &b, const PcgOptions &opts)
{
    requireLoaded();
    ALR_ASSERT(_symgsFwd != nullptr, "PCG requires loadPde");

    PcgKernels kernels;
    kernels.spmv = [this](const DenseVector &x) { return spmv(x); };
    if (opts.precondition) {
        kernels.precond = [this](const DenseVector &r) {
            DenseVector z(r.size(), 0.0);
            symgsSweep(r, z, GsSweep::Symmetric);
            return z;
        };
    }
    return pcgSolveWith(kernels, b, _ld->rows(), opts);
}

GraphResult
Accelerator::relaxToFixpoint(const ConfigTable &table, DenseVector init,
                             bool labels)
{
    _engine.program(_ld.get(), &table);
    const Index omega = _params.omega;
    Index chunks = (_ld->rows() + omega - 1) / omega;

    GraphResult res;
    res.values = std::move(init);
    if (!_params.frontierSkipping) {
        for (;;) {
            DenseVector next =
                labels ? _engine.runLabelRound(res.values)
                       : _engine.runRelaxRound(res.values);
            ++res.rounds;
            if (next == res.values)
                break;
            res.values = std::move(next);
        }
        return res;
    }

    // Frontier-driven rounds: a chunk is active when one of its
    // vertices improved last round; only blocks fed by active chunks
    // stream.  Initially every finite (non-default) entry is active.
    std::vector<uint8_t> active(chunks, 0);
    bool any = false;
    for (Index v = 0; v < _ld->rows(); ++v) {
        bool hot = labels ? res.values[v] != Value(v)
                          : res.values[v] != kInf;
        if (hot) {
            active[v / omega] = 1;
            any = true;
        }
    }
    if (labels && !any) {
        // Label propagation starts from every vertex.
        std::fill(active.begin(), active.end(), 1);
        any = true;
    }
    while (any) {
        DenseVector next =
            labels ? _engine.runLabelRound(res.values, active)
                   : _engine.runRelaxRound(res.values, active);
        ++res.rounds;
        std::vector<uint8_t> nextActive(chunks, 0);
        any = false;
        for (Index v = 0; v < _ld->rows(); ++v) {
            if (next[v] != res.values[v]) {
                nextActive[v / omega] = 1;
                any = true;
            }
        }
        res.values = std::move(next);
        active = std::move(nextActive);
    }
    return res;
}

GraphResult
Accelerator::bfs(Index source)
{
    requireLoaded();
    ALR_ASSERT(_bfsTable != nullptr, "BFS table not built; use loadGraph");
    if (source >= _ld->rows())
        fatal("source out of range");
    DenseVector init(_ld->rows(), kInf);
    init[source] = 0.0;
    return relaxToFixpoint(*_bfsTable, std::move(init), false);
}

GraphResult
Accelerator::sssp(Index source)
{
    requireLoaded();
    ALR_ASSERT(_ssspTable != nullptr,
               "SSSP table not built; use loadGraph");
    if (source >= _ld->rows())
        fatal("source out of range");
    DenseVector init(_ld->rows(), kInf);
    init[source] = 0.0;
    return relaxToFixpoint(*_ssspTable, std::move(init), false);
}

KrylovResult
Accelerator::bicgstab(const DenseVector &b, const KrylovOptions &opts)
{
    requireLoaded();
    ALR_ASSERT(_spmvTable != nullptr, "SpMV table not built");
    return bicgstabSolveWith(
        [this](const DenseVector &x) { return spmv(x); }, b, opts);
}

KrylovResult
Accelerator::gmres(const DenseVector &b, const GmresOptions &opts)
{
    requireLoaded();
    ALR_ASSERT(_spmvTable != nullptr, "SpMV table not built");
    return gmresSolveWith(
        [this](const DenseVector &x) { return spmv(x); }, b, opts);
}

DenseVector
Accelerator::sptrsvLower(const DenseVector &b)
{
    requireLoaded();
    ALR_ASSERT(_symgsFwd != nullptr, "sptrsv requires loadPde");
    // With no entries above the diagonal, a forward sweep from zero is
    // exact forward substitution.
    DenseVector x(b.size(), 0.0);
    _engine.program(_ld.get(), _symgsFwd.get());
    _engine.runSymgsSweep(b, x);
    return x;
}

DenseVector
Accelerator::sptrsvUpper(const DenseVector &b)
{
    requireLoaded();
    ALR_ASSERT(_symgsBwd != nullptr, "sptrsv requires loadPde");
    DenseVector x(b.size(), 0.0);
    _engine.program(_ld.get(), _symgsBwd.get());
    _engine.runSymgsSweep(b, x);
    return x;
}

GraphResult
Accelerator::connectedComponents()
{
    requireLoaded();
    ALR_ASSERT(_bfsTable != nullptr,
               "components need loadGraph (uses the D-BFS path)");
    DenseVector init(_ld->rows());
    for (Index v = 0; v < _ld->rows(); ++v)
        init[v] = Value(v);
    return relaxToFixpoint(*_bfsTable, std::move(init), true);
}

GraphResult
Accelerator::pagerank(const PageRankOptions &opts)
{
    requireLoaded();
    ALR_ASSERT(_prTable != nullptr, "PR table not built; use loadGraph");
    _engine.program(_ld.get(), _prTable.get());

    Index n = _ld->rows();
    GraphResult res;
    res.values.assign(n, 1.0 / double(n));
    for (int it = 0; it < opts.maxIterations; ++it) {
        DenseVector sums = _engine.runPrRound(res.values, _outDegrees);
        Value dangling = 0.0;
        for (Index v = 0; v < n; ++v) {
            if (_outDegrees[v] == 0)
                dangling += res.values[v];
        }
        Value base = (1.0 - opts.damping) / Value(n) +
                     opts.damping * dangling / Value(n);
        Value delta = 0.0;
        for (Index v = 0; v < n; ++v) {
            Value nv = base + opts.damping * sums[v];
            delta += std::abs(nv - res.values[v]);
            res.values[v] = nv;
        }
        ++res.rounds;
        if (delta < opts.tolerance)
            break;
    }
    return res;
}

const LocallyDenseMatrix &
Accelerator::matrix() const
{
    requireLoaded();
    return *_ld;
}

const ConfigTable &
Accelerator::table(KernelType k, GsSweep dir) const
{
    const ConfigTable *t = nullptr;
    switch (k) {
      case KernelType::SpMV:
        t = _spmvTable.get();
        break;
      case KernelType::SymGS:
        t = dir == GsSweep::Backward ? _symgsBwd.get() : _symgsFwd.get();
        break;
      case KernelType::BFS:
        t = _bfsTable.get();
        break;
      case KernelType::SSSP:
        t = _ssspTable.get();
        break;
      case KernelType::PageRank:
        t = _prTable.get();
        break;
    }
    ALR_ASSERT(t != nullptr, "table for %s not built", toString(k));
    return *t;
}

AccelReport
Accelerator::report() const
{
    AccelReport r;
    r.cycles = _engine.totalCycles();
    r.seconds = _engine.seconds();
    r.energy = _energyModel.evaluate(_engine);
    r.energyJoules = r.energy.total();
    r.bandwidthUtilization = _engine.bandwidthUtilization();
    r.cacheTimeFraction = _engine.cacheTimeFraction();
    r.sequentialOpFraction = _engine.sequentialOpFraction();
    r.reconfigurations = _engine.rcu().reconfigurations();
    r.bytesFromMemory = _engine.memory().totalBytes();
    return r;
}

UtilizationReport
Accelerator::utilization() const
{
    auto frac = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    UtilizationReport u;
    u.cycles = _engine.totalCycles();
    u.seconds = _engine.seconds();

    const Fcu &fcu = _engine.fcu();
    double omega = double(_params.omega);
    u.aluOccupancy = frac(fcu.aluOps(), double(u.cycles) * omega);
    // A binary tree over omega lanes has omega - 1 reduce engines.
    u.treeOccupancy =
        frac(fcu.reduceOps(), double(u.cycles) * (omega - 1.0));
    u.bandwidthUtilization = _engine.bandwidthUtilization();
    const CacheModel &cache = _engine.rcu().cache();
    u.cacheHitRate = frac(cache.hits(), cache.hits() + cache.misses());
    u.cacheTimeFraction = _engine.cacheTimeFraction();

    u.sequentialOpFraction = _engine.sequentialOpFraction();
    u.sequentialCycleFraction =
        frac(double(_engine.seqCycles()),
             double(_engine.seqCycles() + _engine.parCycles()));
    u.reconfigHiddenFraction = _engine.rcu().reconfigHiddenFraction();

    u.flops = _engine.seqFlops() + _engine.parFlops();
    u.dramBytes = _engine.memory().totalBytes();
    u.arithmeticIntensity = frac(u.flops, u.dramBytes);
    u.achievedGflops = frac(u.flops, u.seconds) * 1e-9;
    u.peakGflops = (2.0 * omega - 1.0) * _params.clockGhz;
    u.attainableGflops =
        std::min(u.peakGflops,
                 _params.memBandwidthGBs * u.arithmeticIntensity);
    return u;
}

} // namespace alr
