#include "reference/reference_engine.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "alrescha/sim/profile.hh"
#include "alrescha/sim/reduce.hh"
#include "common/logging.hh"
#include "common/timeline.hh"

namespace alr {

using profile::Cause;

Value
vectorReduce(std::span<const Value> a, std::span<const Value> b, VecOp op,
             ReduceOp reduce, std::span<const uint8_t> lane_valid,
             FcuOpCounts &counts)
{
    ALR_ASSERT(a.size() == b.size(), "FCU lane-count mismatch");
    ALR_ASSERT(lane_valid.empty() || lane_valid.size() == a.size(),
               "lane-valid mask size mismatch");
    const Index lanes = Index(a.size());
    const Value identity = reduce == ReduceOp::Sum
                               ? 0.0
                               : std::numeric_limits<Value>::infinity();
    // Phase 1: the lane ALUs.  Masked-out lanes feed the tree the
    // identity, like the pad lanes.
    constexpr Index kStackLanes = 64;
    Value stack[kStackLanes];
    std::vector<Value> heap;
    Value *p = stack;
    if (fcutree::ceilPow2(lanes) > kStackLanes) {
        heap.resize(fcutree::ceilPow2(lanes));
        p = heap.data();
    }
    for (Index lane = 0; lane < lanes; ++lane) {
        if (!lane_valid.empty() && !lane_valid[lane]) {
            p[lane] = identity;
            continue;
        }
        p[lane] = op == VecOp::Mul ? a[lane] * b[lane] : a[lane] + b[lane];
        (op == VecOp::Mul ? counts.mul : counts.add) += 1.0;
        counts.alu += 1.0;
        counts.reduce += 1.0;
    }
    // Phase 2: the reduce-engine tree, in the canonical order.  The
    // per-valid-lane tally above is the stats' modeling convention,
    // independent of the tree shape.
    return reduce == ReduceOp::Sum ? fcutree::sumTree(p, lanes)
                                   : fcutree::minTree(p, lanes);
}

ReferenceEngine::ReferenceEngine(Engine &engine)
    : _engine(engine), _params(engine.params()), _memory(engine.memory()),
      _fcu(engine.fcu()), _rcu(engine.rcu())
{
}

void
ReferenceEngine::program(const LocallyDenseMatrix *ld,
                         const ConfigTable *table)
{
    ALR_ASSERT(ld != nullptr && table != nullptr, "null program");
    ALR_ASSERT(ld->omega() == table->omega(), "omega mismatch");
    _ld = ld;
    _table = table;
}

uint64_t
ReferenceEngine::streamBlockCycles(const LdBlockInfo &blk) const
{
    // One block row of omega operands issues per cycle; the memory pipe
    // may be the slower side for wide blocks.
    uint64_t compute = _params.omega;
    uint64_t mem = _memory.streamCycles(uint64_t(blk.size) * sizeof(Value));
    return std::max(compute, mem);
}

uint64_t
ReferenceEngine::streamRowsCycles(Index rows_streamed) const
{
    // With row skipping only the occupied block rows cross the bus and
    // occupy FCU issue slots.
    uint64_t bytes =
        uint64_t(rows_streamed) * _params.omega * sizeof(Value);
    return std::max<uint64_t>(rows_streamed, _memory.streamCycles(bytes));
}

void
ReferenceEngine::chargeStream(const LdBlockInfo &blk, Index occupied,
                              DataPathType dp, profile::RunScope &prof,
                              RunTiming &t)
{
    // A GEMV-class block streams its occupied rows when empty rows are
    // skipped, else its whole payload.
    uint64_t bc, streamedBytes;
    if (_params.skipEmptyBlockRows) {
        streamedBytes = uint64_t(occupied) * _params.omega * sizeof(Value);
        bc = streamRowsCycles(occupied);
    } else {
        streamedBytes = uint64_t(blk.size) * sizeof(Value);
        bc = streamBlockCycles(blk);
    }
    _memory.recordStream(streamedBytes);
    if (prof.on()) {
        uint64_t memC = _memory.streamCycles(streamedBytes);
        prof.add(dp, blk.blockRow, Cause::Stream, memC, streamedBytes);
        prof.add(dp, blk.blockRow, Cause::FcuCompute, bc - memC);
    }
    t.cycles += bc;
    t.parCycles += bc;
}

DenseVector
ReferenceEngine::runSpmv(const DenseVector &x, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "reference engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("spmv", "run");
    const bool tlOn = timeline::enabled();
    const uint64_t tlBase = _engine.totalCycles();
    int64_t segStart = -1;
    DataPathType segDp{};
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    const Index omega = _params.omega;
    DenseVector y(_ld->rows(), 0.0);
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> rowVals(omega), xChunk(omega);
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        if (tlOn && segStart >= 0 && e.dp != segDp) {
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, tlBase + segStart,
                           t.cycles - uint64_t(segStart));
            segStart = -1;
        }
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            if (tlOn)
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               tlBase + t.cycles, cfg);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            t.cycles += cfg;
            filled = false;
        }
        if (!filled) {
            uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
            if (tlOn)
                timeline::span("fill", "fcu", timeline::kTidFcu,
                               tlBase + t.cycles, fill);
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (tlOn && segStart < 0) {
            segStart = int64_t(t.cycles);
            segDp = e.dp;
        }
        if (int64_t(blk.blockRow) != curRow) {
            if (curRow >= 0) {
                bool wMiss = false;
                t.cycles += _rcu.cache().write(CacheVec::Out,
                                               Index(curRow), &wMiss);
                if (wMiss)
                    prof.add(e.dp, curRow, Cause::CacheMiss, 0,
                             lineBytes);
            }
            curRow = blk.blockRow;
        }

        bool xMiss = false;
        uint64_t xRead =
            _rcu.cache().read(CacheVec::Xt, blk.blockCol, false, &xMiss);
        prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                 xMiss ? lineBytes : 0);
        t.cycles += xRead;

        Index c0 = blk.blockCol * omega;
        for (Index lc = 0; lc < omega; ++lc) {
            Index c = c0 + lc;
            xChunk[lc] = c < _ld->cols() ? x[c] : 0.0;
        }
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                rowVals[lc] = _ld->blockValue(blk, lr, lc);
                if (rowVals[lc] != 0.0)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            y[r] += vectorReduce(rowVals, xChunk, VecOp::Mul,
                                 ReduceOp::Sum, {}, fcuOps);
            parFlops += 2.0 * useful;
            usefulBytes += double(useful) * sizeof(Value);
        }
        chargeStream(blk, occupied, e.dp, prof, t);
    }
    if (curRow >= 0) {
        bool wMiss = false;
        t.cycles +=
            _rcu.cache().write(CacheVec::Out, Index(curRow), &wMiss);
        if (wMiss)
            prof.add(DataPathType::Gemv, curRow, Cause::CacheMiss, 0,
                     lineBytes);
    }
    if (tlOn && segStart >= 0)
        timeline::span(toString(segDp), "datapath", timeline::kTidDataPath,
                       tlBase + segStart, t.cycles - uint64_t(segStart));
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(DataPathType::Gemv, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    _engine.commitRun({.base = tlBase, .timing = t, .parFlops = parFlops,
                       .usefulBytes = usefulBytes},
                      timing);
    return y;
}

std::vector<DenseVector>
ReferenceEngine::runSpmm(const std::vector<DenseVector> &xs,
                         RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "reference engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(!xs.empty(), "spmm needs at least one right-hand side");
    for (const DenseVector &x : xs)
        ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("spmm", "run");
    const uint64_t tlBase = _engine.totalCycles();
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    const Index omega = _params.omega;
    const size_t k = xs.size();
    std::vector<DenseVector> ys(k, DenseVector(_ld->rows(), 0.0));
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> rowVals(omega);
    std::vector<DenseVector> chunks(k, DenseVector(omega, 0.0));
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            t.cycles += cfg;
            filled = false;
        }
        if (!filled) {
            uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (int64_t(blk.blockRow) != curRow) {
            if (curRow >= 0) {
                for (size_t j = 0; j < k; ++j) {
                    bool wMiss = false;
                    t.cycles += _rcu.cache().write(CacheVec::Out,
                                                   Index(curRow), &wMiss);
                    if (wMiss)
                        prof.add(e.dp, curRow, Cause::CacheMiss, 0,
                                 lineBytes);
                }
            }
            curRow = blk.blockRow;
        }

        // One chunk read per RHS (distinct cache lines).
        for (size_t j = 0; j < k; ++j) {
            bool xMiss = false;
            uint64_t xRead = _rcu.cache().read(CacheVec::Xt,
                                               blk.blockCol, false,
                                               &xMiss);
            prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                     xMiss ? lineBytes : 0);
            t.cycles += xRead;
        }

        Index c0 = blk.blockCol * omega;
        for (size_t j = 0; j < k; ++j) {
            for (Index lc = 0; lc < omega; ++lc) {
                Index c = c0 + lc;
                chunks[j][lc] = c < _ld->cols() ? xs[j][c] : 0.0;
            }
        }
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                rowVals[lc] = _ld->blockValue(blk, lr, lc);
                if (rowVals[lc] != 0.0)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            for (size_t j = 0; j < k; ++j) {
                ys[j][r] += vectorReduce(rowVals, chunks[j],
                                         VecOp::Mul, ReduceOp::Sum,
                                         {}, fcuOps);
                parFlops += 2.0 * useful;
            }
            // The payload is useful once; the reuse is the win.
            usefulBytes += double(useful) * sizeof(Value);
        }
        // The block streams its SpMV payload once (the occupied rows
        // when empty rows are skipped, else the whole block); its rows
        // issue once per RHS.
        Index streamedRows =
            _params.skipEmptyBlockRows ? occupied : omega;
        uint64_t streamedBytes =
            _params.skipEmptyBlockRows
                ? uint64_t(occupied) * omega * sizeof(Value)
                : uint64_t(blk.size) * sizeof(Value);
        _memory.recordStream(streamedBytes);
        uint64_t mem = _memory.streamCycles(streamedBytes);
        uint64_t issue = uint64_t(streamedRows) * k;
        uint64_t bc = std::max(mem, issue);
        prof.add(e.dp, blk.blockRow, Cause::Stream, mem, streamedBytes);
        prof.add(e.dp, blk.blockRow, Cause::FcuCompute, bc - mem);
        t.cycles += bc;
        t.parCycles += bc;
    }
    if (curRow >= 0) {
        for (size_t j = 0; j < k; ++j) {
            bool wMiss = false;
            t.cycles += _rcu.cache().write(CacheVec::Out, Index(curRow),
                                           &wMiss);
            if (wMiss)
                prof.add(DataPathType::Gemv, curRow, Cause::CacheMiss, 0,
                         lineBytes);
        }
    }
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(DataPathType::Gemv, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    _engine.commitRun({.base = tlBase, .timing = t, .parFlops = parFlops,
                       .usefulBytes = usefulBytes, .name = "spmm"},
                      timing);
    return ys;
}

void
ReferenceEngine::runSymgsSweep(const DenseVector &b, DenseVector &x,
                               RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "reference engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SymGS,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(_table->reordered(),
               "only reordered SymGS tables are executable: the link "
               "stack needs every GEMV of a block row before its D-SymGS");
    ALR_ASSERT(b.size() == _ld->rows() && x.size() == _ld->rows(),
               "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("symgs", "run");
    const bool tlOn = timeline::enabled();
    const uint64_t tlBase = _engine.totalCycles();
    int64_t segStart = -1;
    DataPathType segDp{};
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    const Index omega = _params.omega;
    const DenseVector &diag = _ld->diagonal();
    bool backward = _table->direction() == GsSweep::Backward;
    RunTiming t;
    bool filled = false;
    double parFlops = 0.0, seqFlops = 0.0, usefulBytes = 0.0;
    double peOps = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> rowVals(omega), xChunk(omega), partials(omega);

    /**
     * Timing: two overlapping timelines.  The memory stream never
     * stalls ("uninterrupted streaming"): GEMV blocks of later block
     * rows stream and pipeline while a D-SymGS chain drains, their
     * partials queueing on the link stack.  The serialized chain
     * advances at the recurrence critical path -- the stale lanes of
     * each row's dot product are precomputed in the pipelined tree, so
     * one step is multiply (ALU) + subtract + divide (PEs) before
     * x_j^t rotates into the next row's operands (Fig 10).  The sweep
     * finishes when the slower timeline does.
     */
    uint64_t stream_t = 0; // streaming/pipelined front
    uint64_t dep_t = 0;    // completion of the dependence chain
    int stepLat =
        _params.aluLatency + 2 * _params.peLatency;

    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        if (tlOn && segStart >= 0 && e.dp != segDp) {
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, tlBase + segStart,
                           stream_t - uint64_t(segStart));
            segStart = -1;
        }
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            if (tlOn)
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               tlBase + stream_t, cfg);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            stream_t += cfg;
            filled = false;
        }

        if (e.dp == DataPathType::Gemv) {
            if (!filled) {
                uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
                if (tlOn)
                    timeline::span("fill", "fcu", timeline::kTidFcu,
                                   tlBase + stream_t, fill);
                prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
                stream_t += fill;
                filled = true;
            }
            if (tlOn && segStart < 0) {
                segStart = int64_t(stream_t);
                segDp = e.dp;
            }
            CacheVec vec = e.op == OperandPort::Port1 ? CacheVec::Xt
                                                      : CacheVec::Xprev;
            bool xMiss = false;
            uint64_t xRead =
                _rcu.cache().read(vec, blk.blockCol, false, &xMiss);
            prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                     xMiss ? lineBytes : 0);
            stream_t += xRead;

            Index c0 = blk.blockCol * omega;
            for (Index lc = 0; lc < omega; ++lc) {
                Index c = c0 + lc;
                xChunk[lc] = c < _ld->cols() ? x[c] : 0.0;
            }
            Index occupied = 0;
            for (Index lr = 0; lr < omega; ++lr) {
                Index r = blk.blockRow * omega + lr;
                if (r >= _ld->rows()) {
                    partials[lr] = 0.0;
                    continue;
                }
                Index useful = 0;
                for (Index lc = 0; lc < omega; ++lc) {
                    rowVals[lc] = _ld->blockValue(blk, lr, lc);
                    if (rowVals[lc] != 0.0)
                        ++useful;
                }
                if (useful == 0 && _params.skipEmptyBlockRows) {
                    partials[lr] = 0.0;
                    continue;
                }
                ++occupied;
                partials[lr] = vectorReduce(rowVals, xChunk,
                                            VecOp::Mul, ReduceOp::Sum,
                                            {}, fcuOps);
                parFlops += 2.0 * useful;
                usefulBytes += double(useful) * sizeof(Value);
            }
            uint64_t bc, streamedBytes;
            if (_params.skipEmptyBlockRows) {
                streamedBytes = uint64_t(occupied) * omega *
                                sizeof(Value);
                _memory.recordStream(streamedBytes);
                bc = streamRowsCycles(occupied);
            } else {
                streamedBytes = uint64_t(blk.size) * sizeof(Value);
                _memory.recordStream(streamedBytes);
                bc = streamBlockCycles(blk);
            }
            if (prof.on()) {
                uint64_t memC = _memory.streamCycles(streamedBytes);
                prof.add(e.dp, blk.blockRow, Cause::Stream, memC,
                         streamedBytes);
                prof.add(e.dp, blk.blockRow, Cause::FcuCompute,
                         bc - memC);
            }
            stream_t += bc;
            _rcu.linkStack().push(partials);
            if (tlOn)
                timeline::counter("link_depth", tlBase + stream_t,
                                  double(_rcu.linkStack().depth()));
        } else {
            ALR_ASSERT(e.dp == DataPathType::DSymgs,
                       "unexpected data path in SymGS table");
            if (tlOn && segStart < 0) {
                segStart = int64_t(stream_t);
                segDp = e.dp;
            }
            // The diagonal block runs serialized: each row's result
            // rotates into the next row's operands (Fig 10).
            Index br = blk.blockRow;
            Index r0 = br * omega;
            uint64_t blkBytes = uint64_t(blk.size) * sizeof(Value);
            _memory.recordStream(blkBytes);
            uint64_t bc = streamBlockCycles(blk);
            stream_t += bc;
            Index validRows = std::min<Index>(omega, _ld->rows() - r0);
            // b arrives through its FIFO, streamed once per sweep.
            _memory.recordStream(uint64_t(validRows) * sizeof(Value));
            usefulBytes += double(validRows) * sizeof(Value);
            if (prof.on()) {
                uint64_t memC = _memory.streamCycles(blkBytes);
                prof.add(e.dp, br, Cause::Stream, memC,
                         blkBytes + uint64_t(validRows) * sizeof(Value));
                prof.add(e.dp, br, Cause::FcuCompute, bc - memC);
            }

            // The chain starts once this block row's partials are
            // through the tree and the previous chain link finished.
            // The diagonal read is on the dependence timeline, so its
            // latency lands in DSymgsWait; only its miss bytes are
            // attributed here.
            bool dMiss = false;
            uint64_t diag_read = _rcu.cache().read(CacheVec::Diag, br,
                                                   true, &dMiss);
            if (dMiss)
                prof.add(e.dp, br, Cause::CacheMiss, 0, lineBytes);
            uint64_t dep_in = dep_t;
            uint64_t start =
                std::max(stream_t + uint64_t(_params.pipelineDepth()),
                         dep_t) +
                diag_read;
            uint64_t chain = 0;

            DenseVector acc = _rcu.linkStack().popAccumulate(omega);
            for (Index step = 0; step < omega; ++step) {
                Index lr = backward ? omega - 1 - step : step;
                Index r = r0 + lr;
                if (r >= _ld->rows())
                    continue;
                Index useful = 0;
                for (Index lc = 0; lc < omega; ++lc) {
                    if (lc == lr) {
                        rowVals[lc] = 0.0;
                        xChunk[lc] = 0.0;
                        continue;
                    }
                    Index c = r0 + lc;
                    rowVals[lc] = _ld->blockValue(blk, lr, lc);
                    xChunk[lc] = c < _ld->rows() ? x[c] : 0.0;
                    if (rowVals[lc] != 0.0)
                        ++useful;
                }
                Value sum = acc[lr] +
                            vectorReduce(rowVals, xChunk, VecOp::Mul,
                                         ReduceOp::Sum, {}, fcuOps);
                peOps += 2.0; // subtract + divide
                x[r] = (b[r] - sum) / diag[r];
                chain += uint64_t(stepLat);
                seqFlops += 2.0 * useful + 2.0;
                usefulBytes += double(useful + 2) * sizeof(Value);
            }
            bool xwMiss = false;
            uint64_t xtWrite = _rcu.cache().write(CacheVec::Xt, br,
                                                  &xwMiss);
            if (xwMiss)
                prof.add(e.dp, br, Cause::CacheMiss, 0, lineBytes);
            dep_t = start + chain + xtWrite;
            prof.chain(br, stream_t, dep_in, start, chain, dep_t);
            t.seqCycles += chain;
            filled = false; // tree was used in single-shot mode
            if (tlOn) {
                timeline::span("d-symgs chain", "datapath",
                               timeline::kTidChain, tlBase + start, chain);
                timeline::counter("link_depth", tlBase + start, 0.0);
            }
        }
    }
    if (tlOn && segStart >= 0)
        timeline::span(toString(segDp), "datapath", timeline::kTidDataPath,
                       tlBase + segStart, stream_t - uint64_t(segStart));
    t.parCycles = stream_t;
    t.cycles = std::max(stream_t, dep_t) + uint64_t(_params.drainCycles());
    prof.add(DataPathType::DSymgs, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    prof.commitSymgs(stream_t, dep_t,
                     uint64_t(_params.pipelineDepth()));
    _fcu.noteOps(fcuOps);
    _rcu.notePeOps(peOps);
    _engine.commitRun({.base = tlBase, .timing = t, .parFlops = parFlops,
                       .seqFlops = seqFlops, .usefulBytes = usefulBytes},
                      timing);
}

DenseVector
ReferenceEngine::runRelaxRound(const DenseVector &dist, bool zero_addend,
                               const std::vector<uint8_t> *active_chunks,
                               RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "reference engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::BFS ||
                   _table->kernel() == KernelType::SSSP,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(dist.size() == _ld->rows(), "operand length mismatch");

    const Index omega = _params.omega;
    const bool hops = _table->kernel() == KernelType::BFS;
    constexpr Value inf = std::numeric_limits<Value>::infinity();

    timeline::ScopedHostSpan hostSpan("relax", "run");
    const uint64_t tlBase = _engine.totalCycles();
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;
    DataPathType drainDp = DataPathType::Gemv;

    DenseVector cand(_ld->rows(), inf);
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> srcDist(omega), addend(omega);
    std::vector<uint8_t> valid(omega);
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        // Frontier skipping: an inactive source chunk cannot improve
        // any candidate, so the block never leaves memory.
        if (active_chunks && !(*active_chunks)[blk.blockCol])
            continue;
        drainDp = e.dp;
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            t.cycles += cfg;
            filled = false;
        }
        if (!filled) {
            uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Min));
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (int64_t(blk.blockRow) != curRow) {
            if (curRow >= 0) {
                // Assign phase: compare with the old distance chunk and
                // write back (Table 1, phase 3).
                bool rMiss = false, wMiss = false;
                uint64_t oRead = _rcu.cache().read(
                    CacheVec::Out, Index(curRow), false, &rMiss);
                prof.add(e.dp, curRow, Cause::CacheMiss, oRead,
                         rMiss ? lineBytes : 0);
                t.cycles += oRead;
                t.cycles += _rcu.cache().write(CacheVec::Out,
                                               Index(curRow), &wMiss);
                if (wMiss)
                    prof.add(e.dp, curRow, Cause::CacheMiss, 0,
                             lineBytes);
            }
            curRow = blk.blockRow;
        }

        bool xMiss = false;
        uint64_t xRead =
            _rcu.cache().read(CacheVec::Xt, blk.blockCol, false, &xMiss);
        prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                 xMiss ? lineBytes : 0);
        t.cycles += xRead;

        Index c0 = blk.blockCol * omega;
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                Index src = c0 + lc;
                Value w = _ld->blockValue(blk, lr, lc);
                bool present = w != 0.0 && src < _ld->cols();
                valid[lc] = present;
                srcDist[lc] = present ? dist[src] : inf;
                addend[lc] = zero_addend ? 0.0 : (hops ? 1.0 : w);
                if (present)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            Value m = vectorReduce(srcDist, addend, VecOp::Add,
                                   ReduceOp::Min, valid, fcuOps);
            cand[r] = std::min(cand[r], m);
            parFlops += 2.0 * useful;
            usefulBytes += double(useful) * sizeof(Value);
        }
        chargeStream(blk, occupied, e.dp, prof, t);
    }
    if (curRow >= 0) {
        bool rMiss = false, wMiss = false;
        uint64_t oRead = _rcu.cache().read(CacheVec::Out, Index(curRow),
                                           false, &rMiss);
        prof.add(drainDp, curRow, Cause::CacheMiss, oRead,
                 rMiss ? lineBytes : 0);
        t.cycles += oRead;
        t.cycles +=
            _rcu.cache().write(CacheVec::Out, Index(curRow), &wMiss);
        if (wMiss)
            prof.add(drainDp, curRow, Cause::CacheMiss, 0, lineBytes);
    }
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(drainDp, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    _engine.commitRun(
        {.base = tlBase, .timing = t, .parFlops = parFlops,
         .usefulBytes = usefulBytes,
         .name = zero_addend ? "d-cc" : (hops ? "d-bfs" : "d-sssp")},
        timing);

    DenseVector next(dist.size());
    for (size_t v = 0; v < dist.size(); ++v)
        next[v] = std::min(dist[v], cand[v]);
    return next;
}

DenseVector
ReferenceEngine::runPrRound(const DenseVector &rank,
                            const std::vector<Index> &outdeg,
                            RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "reference engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::PageRank,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(rank.size() == _ld->rows() &&
                   outdeg.size() == _ld->rows(),
               "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("pagerank", "run");
    const uint64_t tlBase = _engine.totalCycles();
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;
    DataPathType drainDp = DataPathType::Gemv;

    const Index omega = _params.omega;
    DenseVector sums(_ld->rows(), 0.0);
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0, peOps = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> contrib(omega), pattern(omega);
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        drainDp = e.dp;
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            t.cycles += cfg;
            filled = false;
        }
        if (!filled) {
            uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (int64_t(blk.blockRow) != curRow) {
            if (curRow >= 0) {
                bool wMiss = false;
                t.cycles += _rcu.cache().write(CacheVec::Out,
                                               Index(curRow), &wMiss);
                if (wMiss)
                    prof.add(e.dp, curRow, Cause::CacheMiss, 0,
                             lineBytes);
            }
            curRow = blk.blockRow;
        }

        // rank chunk (port1) and out-degree chunk (port2, Table 1).
        for (CacheVec vec : {CacheVec::Xt, CacheVec::Aux}) {
            bool rdMiss = false;
            uint64_t rd =
                _rcu.cache().read(vec, blk.blockCol, false, &rdMiss);
            prof.add(e.dp, blk.blockRow, Cause::CacheMiss, rd,
                     rdMiss ? lineBytes : 0);
            t.cycles += rd;
        }

        Index c0 = blk.blockCol * omega;
        for (Index lc = 0; lc < omega; ++lc) {
            Index src = c0 + lc;
            if (src < _ld->rows() && outdeg[src] > 0) {
                contrib[lc] = rank[src] / Value(outdeg[src]);
                peOps += 1.0; // the phase-1 division (overlapped)
            } else {
                contrib[lc] = 0.0;
            }
        }
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                pattern[lc] =
                    _ld->blockValue(blk, lr, lc) != 0.0 ? 1.0 : 0.0;
                if (pattern[lc] != 0.0)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            sums[r] += vectorReduce(pattern, contrib, VecOp::Mul,
                                    ReduceOp::Sum, {}, fcuOps);
            parFlops += 2.0 * useful;
            usefulBytes += double(useful) * sizeof(Value);
        }
        chargeStream(blk, occupied, e.dp, prof, t);
    }
    if (curRow >= 0) {
        bool wMiss = false;
        t.cycles +=
            _rcu.cache().write(CacheVec::Out, Index(curRow), &wMiss);
        if (wMiss)
            prof.add(drainDp, curRow, Cause::CacheMiss, 0, lineBytes);
    }
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(drainDp, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    _rcu.notePeOps(peOps);
    _engine.commitRun({.base = tlBase, .timing = t, .parFlops = parFlops,
                       .usefulBytes = usefulBytes, .name = "d-pr"},
                      timing);
    return sums;
}

std::string
statDump(const Engine &engine)
{
    std::ostringstream os;
    engine.statGroup().dump(os);
    return os.str();
}

DenseVector
referenceSpmv(Accelerator &acc, const DenseVector &x)
{
    ReferenceEngine ref(acc.engine());
    ref.program(&acc.matrix(), &acc.table(KernelType::SpMV));
    return ref.runSpmv(x);
}

void
referenceSymgsSweep(Accelerator &acc, const DenseVector &b, DenseVector &x,
                    GsSweep sweep)
{
    ReferenceEngine ref(acc.engine());
    if (sweep == GsSweep::Forward || sweep == GsSweep::Symmetric) {
        ref.program(&acc.matrix(),
                    &acc.table(KernelType::SymGS, GsSweep::Forward));
        ref.runSymgsSweep(b, x);
    }
    if (sweep == GsSweep::Backward || sweep == GsSweep::Symmetric) {
        ref.program(&acc.matrix(),
                    &acc.table(KernelType::SymGS, GsSweep::Backward));
        ref.runSymgsSweep(b, x);
    }
}

PcgResult
referencePcg(Accelerator &acc, const DenseVector &b, const PcgOptions &opts)
{
    PcgKernels kernels;
    kernels.spmv = [&](const DenseVector &x) {
        return referenceSpmv(acc, x);
    };
    if (opts.precondition) {
        kernels.precond = [&](const DenseVector &r) {
            DenseVector z(r.size(), 0.0);
            referenceSymgsSweep(acc, r, z, GsSweep::Symmetric);
            return z;
        };
    }
    return pcgSolveWith(kernels, b, acc.matrix().rows(), opts);
}

} // namespace alr
