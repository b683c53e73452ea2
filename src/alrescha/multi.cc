#include "alrescha/multi.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sparse/coo.hh"

namespace alr {

MultiAccelerator::MultiAccelerator(const MultiParams &params)
    : _params(params)
{
    ALR_ASSERT(params.numEngines >= 1, "need at least one engine");
    _parts.resize(size_t(params.numEngines));
    for (auto &p : _parts)
        p.accel = std::make_unique<Accelerator>(params.engine);
}

void
MultiAccelerator::partitionRows(Index rows)
{
    _rows = rows;
    Index omega = _params.engine.omega;
    Index blockRows = (rows + omega - 1) / omega;
    Index per = (blockRows + Index(_parts.size()) - 1) /
                Index(_parts.size());
    for (size_t p = 0; p < _parts.size(); ++p) {
        Index b = std::min<Index>(Index(p) * per * omega, rows);
        Index e = std::min<Index>((Index(p) + 1) * per * omega, rows);
        _parts[p].rowBegin = b;
        _parts[p].rowEnd = e;
    }
}

std::pair<Index, Index>
MultiAccelerator::slice(int p) const
{
    ALR_ASSERT(p >= 0 && p < numEngines(), "engine %d out of range", p);
    return {_parts[size_t(p)].rowBegin, _parts[size_t(p)].rowEnd};
}

namespace {

/** Square matrix keeping only rows [begin, end) of @p a. */
CsrMatrix
rowSlice(const CsrMatrix &a, Index begin, Index end)
{
    CooMatrix coo(a.rows(), a.cols());
    for (Index r = begin; r < end; ++r) {
        for (Index k = a.rowPtr()[r]; k < a.rowPtr()[r + 1]; ++k)
            coo.add(r, a.colIdx()[k], a.vals()[k]);
    }
    return CsrMatrix::fromCoo(coo);
}

} // namespace

void
MultiAccelerator::loadSpmv(const CsrMatrix &a)
{
    ALR_ASSERT(a.rows() == a.cols(),
               "scale-out partitioning assumes a square operand");
    partitionRows(a.rows());
    // Partitions slice and preprocess independently; each worker only
    // touches its own engine, so loading is embarrassingly parallel.
    parallelFor(0, _parts.size(), [&](size_t i) {
        Partition &p = _parts[i];
        p.accel->loadSpmvOnly(rowSlice(a, p.rowBegin, p.rowEnd));
        // Warm the execution schedule while still on the worker so the
        // first spmv() call doesn't pay the per-partition compiles.
        p.accel->engine().program(&p.accel->matrix(),
                                  &p.accel->table(KernelType::SpMV));
        p.accel->engine().prepareSchedule();
    });
    _graphLoaded = false;
    _commCycles = 0;
}

void
MultiAccelerator::loadGraph(const CsrMatrix &adj)
{
    ALR_ASSERT(adj.rows() == adj.cols(), "adjacency must be square");
    partitionRows(adj.rows());
    _outDegrees = outDegrees(adj);

    // Engine p owns the destinations in its row range: give it the
    // edges whose target lands there, so its transposed slice covers
    // exactly its block rows.
    parallelFor(0, _parts.size(), [&](size_t i) {
        Partition &p = _parts[i];
        CooMatrix coo(adj.rows(), adj.cols());
        for (Index u = 0; u < adj.rows(); ++u) {
            for (Index k = adj.rowPtr()[u]; k < adj.rowPtr()[u + 1];
                 ++k) {
                Index v = adj.colIdx()[k];
                if (v >= p.rowBegin && v < p.rowEnd)
                    coo.add(u, v, adj.vals()[k]);
            }
        }
        p.accel->loadGraph(CsrMatrix::fromCoo(coo));
    });
    _graphLoaded = true;
    _commCycles = 0;
}

uint64_t
MultiAccelerator::broadcastCycles(double bytes) const
{
    double bytes_per_cycle =
        _params.interconnectGBs / _params.engine.clockGhz;
    return uint64_t(std::ceil(bytes / bytes_per_cycle)) +
           uint64_t(_params.barrierCycles);
}

DenseVector
MultiAccelerator::spmv(const DenseVector &x)
{
    ALR_ASSERT(!_parts.empty() && _rows > 0, "no matrix loaded");
    ALR_ASSERT(x.size() == _rows, "operand length mismatch");

    // Broadcast x, run every slice, keep the slowest engine's time.
    // Engines simulate on pool workers; each writes only its own row
    // range of y and its own timing slot, so the merged result is
    // identical to the serial sweep.
    uint64_t comm = broadcastCycles(double(x.size()) * sizeof(Value));
    DenseVector y(_rows, 0.0);
    std::vector<uint64_t> cycles(_parts.size(), 0);
    parallelFor(0, _parts.size(), [&](size_t i) {
        Partition &p = _parts[i];
        if (p.rowBegin == p.rowEnd)
            return;
        RunTiming t;
        p.accel->engine().program(&p.accel->matrix(),
                                  &p.accel->table(KernelType::SpMV));
        DenseVector part = p.accel->engine().runSpmv(x, &t);
        cycles[i] = t.cycles;
        for (Index r = p.rowBegin; r < p.rowEnd; ++r)
            y[r] = part[r];
    });
    uint64_t slowest = 0;
    for (uint64_t c : cycles)
        slowest = std::max(slowest, c);
    _commCycles += comm;
    (void)slowest; // folded into each engine's counters; see report()
    return y;
}

DenseVector
MultiAccelerator::relaxRounds(const DenseVector &init, KernelType kernel,
                              int *rounds)
{
    ALR_ASSERT(_graphLoaded, "graph kernels need loadGraph");
    DenseVector dist = init;
    int round = 0;
    for (;;) {
        ++round;
        _commCycles +=
            broadcastCycles(double(dist.size()) * sizeof(Value));
        DenseVector next = dist;
        // Each partition relaxes its own row range of next in parallel.
        parallelFor(0, _parts.size(), [&](size_t i) {
            Partition &p = _parts[i];
            if (p.rowBegin == p.rowEnd)
                return;
            p.accel->engine().program(&p.accel->matrix(),
                                      &p.accel->table(kernel));
            DenseVector part = p.accel->engine().runRelaxRound(dist);
            for (Index r = p.rowBegin; r < p.rowEnd; ++r)
                next[r] = std::min(next[r], part[r]);
        });
        if (next == dist)
            break;
        dist = std::move(next);
    }
    if (rounds)
        *rounds = round;
    return dist;
}

GraphResult
MultiAccelerator::bfs(Index source)
{
    if (source >= _rows)
        fatal("source out of range");
    DenseVector init(_rows, kInf);
    init[source] = 0.0;
    GraphResult res;
    res.values = relaxRounds(init, KernelType::BFS, &res.rounds);
    return res;
}

GraphResult
MultiAccelerator::sssp(Index source)
{
    if (source >= _rows)
        fatal("source out of range");
    DenseVector init(_rows, kInf);
    init[source] = 0.0;
    GraphResult res;
    res.values = relaxRounds(init, KernelType::SSSP, &res.rounds);
    return res;
}

GraphResult
MultiAccelerator::pagerank(const PageRankOptions &opts)
{
    ALR_ASSERT(_graphLoaded, "pagerank needs loadGraph");
    Index n = _rows;
    GraphResult res;
    res.values.assign(n, 1.0 / double(n));
    for (int it = 0; it < opts.maxIterations; ++it) {
        _commCycles += broadcastCycles(double(n) * sizeof(Value));
        DenseVector sums(n, 0.0);
        // Partitions accumulate into disjoint row ranges of sums.
        parallelFor(0, _parts.size(), [&](size_t i) {
            Partition &p = _parts[i];
            if (p.rowBegin == p.rowEnd)
                return;
            p.accel->engine().program(
                &p.accel->matrix(),
                &p.accel->table(KernelType::PageRank));
            DenseVector part =
                p.accel->engine().runPrRound(res.values, _outDegrees);
            for (Index r = p.rowBegin; r < p.rowEnd; ++r)
                sums[r] += part[r];
        });
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

MultiReport
MultiAccelerator::report() const
{
    // Engines run in parallel: wall time is the slowest engine's
    // accumulated compute plus the serialized communication phases.
    MultiReport r;
    for (const auto &p : _parts) {
        AccelReport er = p.accel->report();
        r.computeCycles = std::max(r.computeCycles, er.cycles);
        r.energyJoules += er.energyJoules;
        r.runCycles.merge(p.accel->engine().runCycleDist());
    }
    r.commCycles = _commCycles;
    r.cycles = r.computeCycles + r.commCycles;
    r.seconds = double(r.cycles) * _params.engine.secondsPerCycle();
    return r;
}

void
MultiAccelerator::resetStats()
{
    for (auto &p : _parts)
        p.accel->resetStats();
    _commCycles = 0;
}

} // namespace alr
