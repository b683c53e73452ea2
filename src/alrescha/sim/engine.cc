#include "alrescha/sim/engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include <fstream>
#include <sstream>

#include "alrescha/sim/profile.hh"
#include "alrescha/sim/reduce.hh"
#include "alrescha/sim/replay.hh"
#include "alrescha/sim/schedule_io.hh"
#include "common/binary_io.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/timeline.hh"
#include "common/trace.hh"

namespace alr {

using profile::Cause;

/** Header of the persisted schedule-cache format ("Alrescha schedule
 *  cache").  Bump on any layout or key change: version 2 moved every
 *  key and checksum from byte-wise FNV-1a to hash::WordHasher, version
 *  3 dropped the timing-partition and D-SymGS level boundaries from
 *  each schedule, version 4 dropped the xValid, validRows and
 *  rowUseful arrays, which no run read, and version 5 dropped every
 *  precomputed timing term (the timing walk computes them) and
 *  narrowed the params fingerprint to omega and skipEmptyBlockRows. */
constexpr uint32_t kSchedCacheMagic = 0xA15ECAC1;
constexpr uint32_t kSchedCacheVersion = 5;

namespace {

/**
 * Whether a restored schedule can replay against the programmed
 * (@p ld, @p table) pair: one path per table entry, an operand staging
 * length equal to the one compileSchedule would choose, every row
 * record inside the matrix and inside its path's block row, and
 * consecutive GEMV rows wherever contiguousRows says so.  The cache
 * loader has already checked what the schedule alone determines.
 */
bool
fitsProgram(const ExecSchedule &s, const LocallyDenseMatrix &ld,
            const ConfigTable &table)
{
    const Index omega = ld.omega();
    const bool spmv = table.kernel() == KernelType::SpMV;
    const Index operandLen =
        spmv ? ld.cols() : std::max(ld.rows(), ld.cols());
    if (s.kernel != table.kernel() || s.omega != omega ||
        s.pathCount != table.entries().size() ||
        s.paddedOperand != size_t((operandLen + omega - 1) / omega) * omega)
        return false;
    for (size_t i = 0; i < s.pathCount; ++i) {
        const uint64_t r0 = uint64_t(s.blockRow[i]) * omega;
        const bool consecutive =
            s.contiguousRows && s.dp[i] != DataPathType::DSymgs;
        for (size_t rr = s.rowBegin[i]; rr < s.rowBegin[i + 1]; ++rr) {
            // Unsigned: a row below r0 wraps far past omega.
            const uint64_t r = s.rowIndex[rr];
            if (r >= ld.rows() || r - r0 >= omega ||
                (consecutive && rr > s.rowBegin[i] &&
                 r != uint64_t(s.rowIndex[rr - 1]) + 1))
                return false;
        }
    }
    return true;
}

} // namespace

bool
TimingMemo::replay(Rcu &rcu, RunTiming &timing)
{
    rcu.flush();
    const std::vector<CacheModel::Line> &lines = rcu.cache().lines();
    for (size_t i = 0; i < _entries.size(); ++i) {
        const Entry &e = _entries[i];
        if (e.configured != rcu.configured() || e.lines != lines)
            continue;
        rcu.cache().setLines(e.exitLines);
        rcu.addPending(e.counts);
        timing = e.timing;
        if (i != 0)
            std::rotate(_entries.begin(), _entries.begin() + i,
                        _entries.begin() + i + 1);
        return true;
    }
    _walk.lines = lines;
    _walk.configured = rcu.configured();
    return false;
}

void
TimingMemo::record(const Rcu &rcu, const RunTiming &timing)
{
    _walk.timing = timing;
    _walk.exitLines = rcu.cache().lines();
    _walk.counts = rcu.pending();
    _entries.insert(_entries.begin(), std::move(_walk));
    if (_entries.size() > kCapacity)
        _entries.pop_back();
    _walk = Entry{};
}

Engine::Engine(const AccelParams &params)
    : _params(params), _memory(params), _fcu(params),
      _rcu(params, &_memory), _stats("alrescha")
{
    _stats.registerScalar("cycles", &_cycles, "total execution cycles");
    _stats.registerScalar("cycles_seq", &_seqCycles,
                          "cycles in serialized D-SymGS paths");
    _stats.registerScalar("cycles_par", &_parCycles,
                          "cycles in pipelined data paths");
    _stats.registerScalar("flops_seq", &_seqFlops,
                          "useful FLOPs in serialized paths");
    _stats.registerScalar("flops_par", &_parFlops,
                          "useful FLOPs in pipelined paths");
    _stats.registerScalar("useful_bytes", &_usefulBytes,
                          "streamed bytes carrying non-zero payload");
    _stats.registerScalar("runs", &_runs, "engine run invocations");
    _stats.registerScalar("schedule_evictions", &_scheduleEvictions,
                          "schedules evicted from the MRU cache");
    _stats.registerDistribution("run_cycles", &_runCycles,
                                "cycles per engine run");
    _memory.registerStats(_stats);
    _fcu.registerStats(_stats);
    _rcu.registerStats(_stats);
}

Engine::~Engine() = default;

void
Engine::program(const LocallyDenseMatrix *ld, const ConfigTable *table)
{
    ALR_ASSERT(ld != nullptr && table != nullptr, "null program");
    ALR_ASSERT(ld->omega() == table->omega() && ld->omega() == _params.omega,
               "omega mismatch");
    ALR_ASSERT(table->entries().empty() ||
                   table->entries().size() <= ld->blocks().size(),
               "table references more blocks than stored");
    _ld = ld;
    _table = table;
}

const ExecSchedule *
Engine::prepareSchedule()
{
    return prepare().sched;
}

Engine::Prepared
Engine::prepare()
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    if (_table->kernel() != KernelType::SpMV &&
        _table->kernel() != KernelType::SymGS)
        return {};
    std::lock_guard<std::mutex> lock(_scheduleMutex);
    for (size_t i = 0; i < _schedules.size(); ++i) {
        ScheduleSlot &slot = _schedules[i];
        if (slot.ldGen != _ld->generation() ||
            slot.tableGen != _table->generation())
            continue;
        // A generation names exactly one construction, so a matching
        // slot must still describe the same shape; a mismatch means
        // the keyed object was mutated without a rebuild, which the
        // format types do not allow.
        ALR_ASSERT(slot.entryCount == _table->entries().size() &&
                       slot.blockCount == _ld->blocks().size() &&
                       slot.streamLen == _ld->stream().size() &&
                       slot.kernel == _table->kernel() &&
                       slot.omega == _ld->omega(),
                   "schedule-cache generation matched a different shape");
        if (i != 0)
            std::rotate(_schedules.begin(), _schedules.begin() + i,
                        _schedules.begin() + i + 1);
        ++_scheduleHits;
        return {_schedules.front().sched.get(),
                _schedules.front().memo.get()};
    }

    // Generation miss: content hashes (computed only here, never on
    // the hit path) may still match a restored schedule -- the warm
    // start claims it without compiling.  A matrix serves several
    // tables, so a live slot of the same matrix generation already
    // holds its hash.
    ScheduleSlot slot;
    slot.ldGen = _ld->generation();
    slot.tableGen = _table->generation();
    auto sameLd = std::find_if(
        _schedules.begin(), _schedules.end(),
        [&](const ScheduleSlot &s) { return s.ldGen == slot.ldGen; });
    slot.ldHash = sameLd != _schedules.end() ? sameLd->ldHash
                                             : _ld->contentHash();
    slot.tableHash = _table->contentHash();
    slot.entryCount = _table->entries().size();
    slot.blockCount = _ld->blocks().size();
    slot.streamLen = _ld->stream().size();
    slot.kernel = _table->kernel();
    slot.omega = _ld->omega();
    for (size_t i = 0; i < _restored.size(); ++i) {
        ScheduleSlot &r = _restored[i];
        if (r.ldHash != slot.ldHash || r.tableHash != slot.tableHash)
            continue;
        if (r.entryCount != slot.entryCount ||
            r.blockCount != slot.blockCount ||
            r.streamLen != slot.streamLen || r.kernel != slot.kernel ||
            r.omega != slot.omega ||
            !fitsProgram(*r.sched, *_ld, *_table)) {
            // A matching hash over a different shape, or a schedule
            // that does not fit the programmed matrix, is either a
            // collision or a corrupted entry that slipped past the
            // parser; either way the compile path is the safe answer.
            warn("restored schedule does not fit the programmed matrix; "
                 "recompiling");
            continue;
        }
        slot.sched = std::move(r.sched);
        _restored.erase(_restored.begin() + std::ptrdiff_t(i));
        ++_scheduleHits; // warm-start claim: served without a compile
        break;
    }
    if (!slot.sched) {
        slot.sched = std::make_unique<ExecSchedule>(
            compileSchedule(*_ld, *_table, _params, &hostPool()));
        ++_scheduleCompiles;
    }
    slot.memo = std::make_unique<TimingMemo>();
    _schedules.insert(_schedules.begin(), std::move(slot));
    size_t capacity = _params.scheduleCacheCapacity < 1
                          ? 1
                          : size_t(_params.scheduleCacheCapacity);
    if (_schedules.size() > capacity) {
        _schedules.pop_back();
        _scheduleEvictions += 1.0;
    }
    return {_schedules.front().sched.get(), _schedules.front().memo.get()};
}

void
Engine::invalidateSchedules()
{
    std::lock_guard<std::mutex> lock(_scheduleMutex);
    _schedules.clear();
    _restored.clear();
}

bool
Engine::saveScheduleCache(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(_scheduleMutex);
    // Serialize the body first so the header can carry its checksum:
    // structural validation alone cannot catch a flipped byte inside a
    // serialized double, but the digest catches any corruption.
    std::ostringstream body;
    bio::writePod<uint32_t>(body, uint32_t(_schedules.size()));
    for (const ScheduleSlot &slot : _schedules) {
        bio::writePod<uint64_t>(body, slot.ldHash);
        bio::writePod<uint64_t>(body, slot.tableHash);
        bio::writePod<uint64_t>(body, uint64_t(slot.entryCount));
        bio::writePod<uint64_t>(body, uint64_t(slot.blockCount));
        bio::writePod<uint64_t>(body, uint64_t(slot.streamLen));
        bio::writePod<uint8_t>(body, uint8_t(slot.kernel));
        bio::writePod<uint32_t>(body, slot.omega);
        serializeSchedule(body, *slot.sched);
    }
    const std::string bytes = body.str();
    bio::writePod<uint32_t>(out, kSchedCacheMagic);
    bio::writePod<uint32_t>(out, kSchedCacheVersion);
    bio::writePod<uint64_t>(out, scheduleParamsFingerprint(_params));
    bio::writePod<uint64_t>(out, uint64_t(bytes.size()));
    bio::writePod<uint64_t>(out, hash::ofBytes(bytes.data(), bytes.size()));
    out.write(bytes.data(), std::streamsize(bytes.size()));
    if (!out) {
        warn("failed writing schedule cache");
        return false;
    }
    return true;
}

bool
Engine::saveScheduleCacheFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        warn("cannot create schedule cache '%s'", path.c_str());
        return false;
    }
    return saveScheduleCache(out);
}

bool
Engine::loadScheduleCache(std::istream &in)
{
    // Parse everything into a staging vector first: a file that goes
    // bad halfway contributes nothing (recompile-only fallback), never
    // a half-restored pool.
    std::vector<ScheduleSlot> staged;
    try {
        if (bio::readPod<uint32_t>(in) != kSchedCacheMagic)
            throw std::runtime_error("not an Alrescha schedule cache");
        if (bio::readPod<uint32_t>(in) != kSchedCacheVersion)
            throw std::runtime_error("schedule cache version mismatch");
        if (bio::readPod<uint64_t>(in) !=
            scheduleParamsFingerprint(_params))
            throw std::runtime_error(
                "schedule cache was compiled under different "
                "accelerator parameters");
        uint64_t bodyLen = bio::readPod<uint64_t>(in);
        uint64_t bodyHash = bio::readPod<uint64_t>(in);
        if (bodyLen > (uint64_t(1) << 34))
            throw std::runtime_error("implausible schedule cache size");
        std::string bytes(size_t(bodyLen), '\0');
        in.read(bytes.data(), std::streamsize(bytes.size()));
        if (size_t(in.gcount()) != bytes.size())
            throw std::runtime_error("truncated schedule cache");
        if (hash::ofBytes(bytes.data(), bytes.size()) != bodyHash)
            throw std::runtime_error("schedule cache checksum mismatch");
        std::istringstream body(bytes);
        uint32_t count = bio::readPod<uint32_t>(body);
        if (count > 4096)
            throw std::runtime_error("implausible schedule count");
        for (uint32_t i = 0; i < count; ++i) {
            ScheduleSlot slot;
            slot.ldHash = bio::readPod<uint64_t>(body);
            slot.tableHash = bio::readPod<uint64_t>(body);
            slot.entryCount = size_t(bio::readPod<uint64_t>(body));
            slot.blockCount = size_t(bio::readPod<uint64_t>(body));
            slot.streamLen = size_t(bio::readPod<uint64_t>(body));
            slot.kernel = KernelType(bio::readPod<uint8_t>(body));
            slot.omega = bio::readPod<uint32_t>(body);
            slot.sched =
                std::make_unique<ExecSchedule>(deserializeSchedule(body));
            // Function pointers do not serialize: re-stamp the replay
            // entry points for this process's ISA and knobs, making
            // the restored schedule indistinguishable from a fresh
            // compile.
            replay::specialize(*slot.sched, _params);
            staged.push_back(std::move(slot));
        }
        if (body.peek() != std::char_traits<char>::eof())
            throw std::runtime_error("trailing bytes after the last "
                                     "schedule");
    } catch (const std::exception &e) {
        warn("schedule cache unusable (%s); will recompile", e.what());
        return false;
    }

    std::lock_guard<std::mutex> lock(_scheduleMutex);
    for (ScheduleSlot &slot : staged) {
        // Last load wins on a duplicate key; the pool stays bounded by
        // what callers load, not by lookup traffic.
        auto dup = std::find_if(
            _restored.begin(), _restored.end(), [&](const ScheduleSlot &r) {
                return r.ldHash == slot.ldHash &&
                       r.tableHash == slot.tableHash;
            });
        if (dup != _restored.end())
            *dup = std::move(slot);
        else
            _restored.push_back(std::move(slot));
    }
    return true;
}

bool
Engine::loadScheduleCacheFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // cold start: no cache yet, not an error
    return loadScheduleCache(in);
}

ThreadPool &
Engine::hostPool()
{
    if (_params.hostThreads <= 0)
        return ThreadPool::global();
    if (!_hostPool)
        _hostPool = std::make_unique<ThreadPool>(_params.hostThreads);
    return *_hostPool;
}

ThreadPool *
Engine::enginePool()
{
    if (_params.engineThreads == 1)
        return nullptr;
    if (_params.engineThreads <= 0)
        return &ThreadPool::global();
    if (!_privatePool)
        _privatePool = std::make_unique<ThreadPool>(_params.engineThreads);
    return _privatePool.get();
}

Value *
Engine::stageOperand(const ExecSchedule &S, const DenseVector &x)
{
    // Copy the operand once into the 64-byte-aligned, chunk-padded
    // staging buffer the gather plan indexes; the zero tail stands in
    // for the interpreter's per-lane out-of-range masking (see
    // replay.cc for the bit-identity argument).
    _xpad.resize(S.paddedOperand);
    std::copy(x.begin(), x.end(), _xpad.begin());
    std::fill(_xpad.begin() + std::ptrdiff_t(x.size()), _xpad.end(), 0.0);
    return _xpad.data();
}

uint64_t
Engine::streamBlockCycles(Index payload) const
{
    // One block row of omega operands issues per cycle; the memory pipe
    // may be the slower side for wide blocks.
    uint64_t compute = _params.omega;
    uint64_t mem = _memory.streamCycles(uint64_t(payload) * sizeof(Value));
    return std::max(compute, mem);
}

uint64_t
Engine::streamRowsCycles(Index rows_streamed) const
{
    // With row skipping only the occupied block rows cross the bus and
    // occupy FCU issue slots.
    uint64_t bytes =
        uint64_t(rows_streamed) * _params.omega * sizeof(Value);
    return std::max<uint64_t>(rows_streamed, _memory.streamCycles(bytes));
}

std::vector<Engine::StreamTerm>
Engine::rowStreamTerms() const
{
    std::vector<StreamTerm> terms(size_t(_params.omega) + 1);
    for (Index r = 0; r <= _params.omega; ++r) {
        const uint64_t bytes = uint64_t(r) * _params.omega * sizeof(Value);
        terms[r] = {streamRowsCycles(r), _memory.streamCycles(bytes), bytes};
    }
    return terms;
}

Engine::StreamTerm
Engine::blockStreamTerm(Index payload) const
{
    const uint64_t bytes = uint64_t(payload) * sizeof(Value);
    return {streamBlockCycles(payload), _memory.streamCycles(bytes), bytes};
}

void
Engine::commitRun(const RunCommit &run, RunTiming *timing)
{
    _rcu.flush();
    if (run.parFlops != 0.0)
        _parFlops += run.parFlops;
    if (run.seqFlops != 0.0)
        _seqFlops += run.seqFlops;
    if (run.usefulBytes != 0.0)
        _usefulBytes += run.usefulBytes;

    // Timeline tail: the optional run-level data-path span, the memory
    // stream-front span, the final tree drain, and the cache/link
    // occupancy counters.
    const RunTiming &t = run.timing;
    if (timeline::recording(timeline::kPidModeled)) {
        if (run.name)
            timeline::span(run.name, "datapath", timeline::kTidDataPath,
                           run.base, t.cycles);
        if (t.parCycles > 0)
            timeline::span("stream", "memory", timeline::kTidMemory,
                           run.base, t.parCycles);
        uint64_t drain = uint64_t(_params.drainCycles());
        if (t.cycles >= drain && drain > 0)
            timeline::span("drain", "fcu", timeline::kTidFcu,
                           run.base + t.cycles - drain, drain);
        timeline::counter("cache_lines", run.base + t.cycles,
                          double(_rcu.cache().occupancy()));
        timeline::counter("link_depth", run.base + t.cycles,
                          double(_rcu.linkStack().depth()));
    }

    _cycles += double(t.cycles);
    _seqCycles += double(t.seqCycles);
    _parCycles += double(t.parCycles);
    ++_runs;
    _runCycles.sample(double(t.cycles));
    if (_snapshotter)
        _snapshotter->maybeSample(totalCycles());
    if (timing)
        *timing = t;
}

DenseVector
Engine::runSpmv(const DenseVector &x, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    const auto [sched, memo] = prepare();
    const ExecSchedule &S = *sched;
    DenseVector y(_ld->rows(), 0.0);

    timeline::ScopedHostSpan hostSpan("spmv.sched", "run");
    const bool tlOn = timeline::recording(timeline::kPidModeled);
    const uint64_t tlBase = totalCycles();
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    // Functional pass: block-row groups touch disjoint output rows, so
    // they may run in parallel; within a group the path order (and thus
    // the FP accumulation order into y) is the interpreter's.  The
    // ω-wide work happens in the replay kernels against the staged
    // operand, which parallel workers share read-only.
    const Value *xpad = stageOperand(S, x);
    size_t groups = S.groupBegin.empty() ? 0 : S.groupBegin.size() - 1;
    ThreadPool *pool = enginePool();
    if (pool && S.parallelSafe && groups > 1) {
        pool->parallelForChunks(0, groups, [&](size_t gb, size_t ge) {
            timeline::ScopedHostSpan chunkSpan("spmv.groups", "worker");
            S.fns.spmv(S, xpad, y.data(), S.groupBegin[gb],
                       S.groupBegin[ge]);
        });
    } else {
        S.fns.spmv(S, xpad, y.data(), 0, S.pathCount);
    }

    // Timing: replay the memo, or walk the interpreter's exact cache
    // access sequence (the cache is stateful across runs), serially,
    // charging every path as the reference engine does.
    RunTiming t;
    const bool memoized = !prof.on() && !tlOn;
    const bool walk = !(memoized && memo->replay(_rcu, t));
    if (walk) {
        const std::vector<StreamTerm> rowTerms = rowStreamTerms();
        const uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
        int64_t segStart = -1;
        DataPathType segDp{};
        bool filled = false;
        int64_t curRow = -1;
        for (size_t i = 0; i < S.pathCount; ++i) {
            const DataPathType dp = S.dp[i];
            const Index br = S.blockRow[i];
            if (tlOn && segStart >= 0 && dp != segDp) {
                timeline::span(toString(segDp), "datapath",
                               timeline::kTidDataPath, tlBase + segStart,
                               t.cycles - uint64_t(segStart));
                segStart = -1;
            }
            uint64_t hidden = 0;
            const uint64_t cfg = _rcu.reconfigure(dp, &hidden);
            if (cfg) {
                if (tlOn)
                    timeline::span("reconfig", "rcu", timeline::kTidRcu,
                                   tlBase + t.cycles, cfg);
                prof.add(dp, br, Cause::ReconfigHidden, hidden);
                prof.add(dp, br, Cause::ReconfigExposed, cfg - hidden);
                t.cycles += cfg;
                filled = false;
            }
            if (!filled) {
                if (tlOn && fill)
                    timeline::span("fill", "fcu", timeline::kTidFcu,
                                   tlBase + t.cycles, fill);
                prof.add(dp, br, Cause::FcuCompute, fill);
                t.cycles += fill;
                filled = true;
            }
            if (tlOn && segStart < 0) {
                segStart = int64_t(t.cycles);
                segDp = dp;
            }
            if (int64_t(br) != curRow) {
                // Out-chunk write-back on a block-row change.
                if (curRow >= 0) {
                    bool wMiss = false;
                    t.cycles += _rcu.cache().write(CacheVec::Out,
                                                   Index(curRow), &wMiss);
                    if (wMiss)
                        prof.add(dp, curRow, Cause::CacheMiss, 0, lineBytes);
                }
                curRow = br;
            }
            bool xMiss = false;
            uint64_t xRead = _rcu.cache().read(S.operandVec[i],
                                               S.blockCol[i], false,
                                               &xMiss);
            prof.add(dp, br, Cause::CacheMiss, xRead,
                     xMiss ? lineBytes : 0);
            t.cycles += xRead;
            const StreamTerm st = gemvStreamTerm(S, i, rowTerms);
            prof.add(dp, br, Cause::Stream, st.mem, st.bytes);
            prof.add(dp, br, Cause::FcuCompute, st.cycles - st.mem);
            t.cycles += st.cycles;
            t.parCycles += st.cycles;
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
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, tlBase + segStart,
                           t.cycles - uint64_t(segStart));
        t.cycles += uint64_t(_params.drainCycles());
        prof.add(DataPathType::Gemv, -1, Cause::TreeDrain,
                 uint64_t(_params.drainCycles()));
        if (memoized)
            memo->record(_rcu, t);
    } else {
        ++_timingMemoHits;
    }
    if (S.pathCount > 0) {
        _rcu.setConfigured(S.lastDp);
        _memory.recordStream(S.totalStreamBytes);
        _fcu.noteOps(S.fcuOps);
    }
    ALR_TRACE("spmv(sched): %zu paths, %llu cycles", S.pathCount,
              (unsigned long long)t.cycles);
    commitRun({.base = tlBase, .timing = t, .parFlops = S.parFlops,
               .usefulBytes = S.usefulBytes},
              timing);
    return y;
}

std::vector<DenseVector>
Engine::runSpmm(const std::vector<DenseVector> &xs, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(!xs.empty(), "spmm needs at least one right-hand side");
    for (const DenseVector &x : xs)
        ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    const size_t k = xs.size();
    const auto [sched, memo] = prepare();
    const ExecSchedule &S = *sched;
    const size_t rows = _ld->rows();

    timeline::ScopedHostSpan hostSpan("spmm.sched", "run");
    const uint64_t tlBase = totalCycles();

    // Functional pass (see runSpmv): the block streams once, its rows
    // issue once per right-hand side.  The operands stage interleaved,
    // replay::kSpmmMaxRhs at a time (replay::SpmmFn), so the replay
    // kernels carry the right-hand sides across the vector lanes, and
    // the results come back interleaved the same way.
    std::vector<DenseVector> ys(k, DenseVector(rows));
    size_t groups = S.groupBegin.empty() ? 0 : S.groupBegin.size() - 1;
    ThreadPool *pool = enginePool();
    for (size_t j0 = 0; j0 < k; j0 += replay::kSpmmMaxRhs) {
        const size_t kb = std::min(k - j0, replay::kSpmmMaxRhs);
        const size_t stride = replay::spmmStride(kb);
        _xpadMulti.assign(S.paddedOperand * stride, 0.0);
        for (size_t c = 0; c < xs[0].size(); ++c)
            for (size_t j = 0; j < kb; ++j)
                _xpadMulti[c * stride + j] = xs[j0 + j][c];
        _ypadMulti.assign(rows * stride, 0.0);
        const Value *xt = _xpadMulti.data();
        Value *yt = _ypadMulti.data();
        if (pool && S.parallelSafe && groups > 1) {
            pool->parallelForChunks(0, groups, [&](size_t gb, size_t ge) {
                timeline::ScopedHostSpan chunkSpan("spmm.groups", "worker");
                S.fns.spmm(S, xt, yt, kb, S.groupBegin[gb],
                           S.groupBegin[ge]);
            });
        } else {
            S.fns.spmm(S, xt, yt, kb, 0, S.pathCount);
        }
        for (size_t r = 0; r < rows; ++r)
            for (size_t j = 0; j < kb; ++j)
                ys[j0 + j][r] = yt[r * stride + j];
    }

    // Timing.  Each chunk access issues once per right-hand side, k
    // times in a row: the first may miss, and the other k - 1 hit the
    // line it left, charging no cycles.  So an SpMM makes its SpMV's
    // cache accesses and switches, in the same order and at the same
    // cycles, from any entry state, and only its stream terms, which
    // depend on k alone, differ.  It therefore shares the SpMV's memo
    // entries, which hold SpMV timings: a run takes the SpMV timing
    // (replayed, or walked with the stream terms left out) and adds
    // its own stream terms.
    RunTiming t;
    profile::RunScope prof;
    const bool memoized =
        !prof.on() && !timeline::recording(timeline::kPidModeled);
    const bool walk = !(memoized && memo->replay(_rcu, t));
    // The block streams once and its rows issue once per right-hand
    // side: rows that cross the bus are the occupied ones when empty
    // rows are skipped, else all omega.
    const std::vector<StreamTerm> rowTerms = rowStreamTerms();
    auto spmmRows = [&](size_t i) {
        return _params.skipEmptyBlockRows ? S.rowBegin[i + 1] - S.rowBegin[i]
                                          : size_t(S.omega);
    };
    auto spmmStream = [&](size_t rowCount) {
        return std::max(rowTerms[rowCount].mem, uint64_t(rowCount) * k);
    };
    uint64_t stream = 0;
    if (walk) {
        const uint64_t lineBytes = _params.cacheLineBytes;
        const uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
        uint64_t spmvStream = 0;
        bool filled = false;
        int64_t curRow = -1;
        for (size_t i = 0; i < S.pathCount; ++i) {
            const DataPathType dp = S.dp[i];
            const Index br = S.blockRow[i];
            uint64_t hidden = 0;
            const uint64_t cfg = _rcu.reconfigure(dp, &hidden);
            if (cfg) {
                prof.add(dp, br, Cause::ReconfigHidden, hidden);
                prof.add(dp, br, Cause::ReconfigExposed, cfg - hidden);
                t.cycles += cfg;
                filled = false;
            }
            if (!filled) {
                prof.add(dp, br, Cause::FcuCompute, fill);
                t.cycles += fill;
                filled = true;
            }
            if (int64_t(br) != curRow) {
                if (curRow >= 0) {
                    bool wMiss = false;
                    t.cycles += _rcu.cache().write(CacheVec::Out,
                                                   Index(curRow), &wMiss);
                    if (wMiss)
                        prof.add(dp, curRow, Cause::CacheMiss, 0, lineBytes);
                }
                curRow = br;
            }
            bool xMiss = false;
            uint64_t xRead = _rcu.cache().read(S.operandVec[i],
                                               S.blockCol[i], false, &xMiss);
            prof.add(dp, br, Cause::CacheMiss, xRead,
                     xMiss ? lineBytes : 0);
            t.cycles += xRead;
            const size_t rowCount = spmmRows(i);
            const uint64_t bc = spmmStream(rowCount);
            prof.add(dp, br, Cause::Stream, rowTerms[rowCount].mem,
                     rowTerms[rowCount].bytes);
            prof.add(dp, br, Cause::FcuCompute, bc - rowTerms[rowCount].mem);
            stream += bc;
            spmvStream += gemvStreamTerm(S, i, rowTerms).cycles;
        }
        if (curRow >= 0) {
            bool wMiss = false;
            t.cycles +=
                _rcu.cache().write(CacheVec::Out, Index(curRow), &wMiss);
            if (wMiss)
                prof.add(DataPathType::Gemv, curRow, Cause::CacheMiss, 0,
                         lineBytes);
        }
        t.cycles += uint64_t(_params.drainCycles());
        prof.add(DataPathType::Gemv, -1, Cause::TreeDrain,
                 uint64_t(_params.drainCycles()));
        if (memoized)
            memo->record(_rcu, {.cycles = t.cycles + spmvStream,
                                .parCycles = spmvStream});
    } else {
        ++_timingMemoHits;
        t.cycles -= t.parCycles;
        for (size_t i = 0; i < S.pathCount; ++i)
            stream += spmmStream(spmmRows(i));
    }
    t.cycles += stream;
    t.parCycles = stream;
    // The k - 1 repeats of every access this run made or replayed
    // (TimingMemo::replay flushed what came before; without the memo,
    // nothing is pending between runs).
    const CacheModel::Counts once = _rcu.cache().pending();
    _rcu.cache().addPending({.reads = (k - 1) * once.reads,
                             .writes = (k - 1) * once.writes,
                             .hits = (k - 1) * (once.reads + once.writes)});
    if (S.pathCount > 0) {
        _rcu.setConfigured(S.lastDp);
        _memory.recordStream(S.spmmStreamBytes);
        FcuOpCounts scaled{S.fcuOps.alu * double(k),
                           S.fcuOps.reduce * double(k),
                           S.fcuOps.mul * double(k),
                           S.fcuOps.add * double(k)};
        _fcu.noteOps(scaled);
    }
    commitRun({.base = tlBase, .timing = t, .parFlops = S.parFlops * double(k),
               .usefulBytes = S.usefulBytes, .name = "spmm"},
              timing);
    return ys;
}

void
Engine::runSymgsSweep(const DenseVector &b, DenseVector &x,
                      RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SymGS,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(_table->reordered(),
               "only reordered SymGS tables are executable: the link "
               "stack needs every GEMV of a block row before its D-SymGS");
    ALR_ASSERT(b.size() == _ld->rows() && x.size() == _ld->rows(),
               "operand length mismatch");

    const Index omega = _params.omega;
    const Index rows = _ld->rows();
    const DenseVector &diag = _ld->diagonal();
    const auto [sched, memo] = prepare();
    const ExecSchedule &S = *sched;

    timeline::ScopedHostSpan hostSpan("symgs.sched", "run");
    const bool tlOn = timeline::recording(timeline::kPidModeled);
    const uint64_t tlBase = totalCycles();
    int64_t segStart = -1;
    DataPathType segDp{};
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    // One pass, functional and timing: the sweep is inherently
    // sequential (each diagonal chain updates x for the GEMV gathers
    // that follow).  The iterate stages into the padded aligned buffer
    // once and is the working vector for the whole sweep (the GEMV
    // majority of the paths then runs through the ω-wide replay
    // kernels, writing their partials straight into the link stack);
    // the diagonal chains stay scalar -- they are the serialized
    // recurrence.  Each path's timing half -- the interpreter's exact
    // cache and switch sequence -- runs only when the memo cannot
    // replay the run.
    RunTiming t;
    const bool memoized = !prof.on() && !tlOn;
    const bool walk = !(memoized && memo->replay(_rcu, t));
    uint64_t stream_t = 0; // streaming/pipelined front
    uint64_t dep_t = 0;    // completion of the dependence chain

    Value *xw = stageOperand(S, x);
    LinkStack &links = _rcu.linkStack();
    std::vector<Value> acc(omega);
    std::vector<Value> lanes(fcutree::ceilPow2(omega));
    const std::vector<StreamTerm> rowTerms =
        walk ? rowStreamTerms() : std::vector<StreamTerm>();
    // Every D-SymGS chain streams one whole diagonal block.
    const StreamTerm chainTerm =
        walk ? blockStreamTerm(LocallyDenseMatrix::payloadSize(
                   _ld->layout(), true, omega))
             : StreamTerm();
    const uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
    // A chain step: multiply (ALU), then subtract and divide (PEs).
    const uint64_t stepLat =
        uint64_t(_params.aluLatency + 2 * _params.peLatency);
    bool filled = false;
    for (size_t i = 0; i < S.pathCount; ++i) {
        const DataPathType dp = S.dp[i];
        const Index br = S.blockRow[i];
        if (dp == DataPathType::Gemv) {
            S.fns.symgs(S, i, xw, links.push(omega));
        } else {
            const Index r0 = br * omega;
            links.popAccumulate(acc.data(), omega);
            for (size_t rr = S.rowBegin[i]; rr < S.rowBegin[i + 1]; ++rr) {
                Index r = S.rowIndex[rr];
                Index lr = r - r0;
                const Value *v = &S.values[rr * omega];
                // The diagonal lane stays explicitly masked (the
                // interpreter zeroes value *and* operand there; the
                // padded buffer covers the matrix-edge lanes).
                for (Index lc = 0; lc < omega; ++lc)
                    lanes[lc] = v[lc] * (lc == lr ? 0.0 : xw[r0 + lc]);
                Value dot = fcutree::sumTree(lanes.data(), omega);
                Value sum = acc[lr] + dot;
                xw[r] = (b[r] - sum) / diag[r];
            }
        }
        if (!walk)
            continue;

        if (tlOn && segStart >= 0 && dp != segDp) {
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, tlBase + segStart,
                           stream_t - uint64_t(segStart));
            segStart = -1;
        }
        uint64_t hidden = 0;
        const uint64_t cfg = _rcu.reconfigure(dp, &hidden);
        if (cfg) {
            if (tlOn)
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               tlBase + stream_t, cfg);
            prof.add(dp, br, Cause::ReconfigHidden, hidden);
            prof.add(dp, br, Cause::ReconfigExposed, cfg - hidden);
            stream_t += cfg;
            filled = false;
        }
        const size_t pathRows = S.rowBegin[i + 1] - S.rowBegin[i];
        if (dp == DataPathType::Gemv) {
            if (!filled) {
                if (tlOn && fill)
                    timeline::span("fill", "fcu", timeline::kTidFcu,
                                   tlBase + stream_t, fill);
                prof.add(dp, br, Cause::FcuCompute, fill);
                stream_t += fill;
                filled = true;
            }
            if (tlOn && segStart < 0) {
                segStart = int64_t(stream_t);
                segDp = dp;
            }
            bool xMiss = false;
            uint64_t xRead = _rcu.cache().read(S.operandVec[i],
                                               S.blockCol[i], false,
                                               &xMiss);
            prof.add(dp, br, Cause::CacheMiss, xRead,
                     xMiss ? lineBytes : 0);
            stream_t += xRead;
            const StreamTerm st = gemvStreamTerm(S, i, rowTerms);
            prof.add(dp, br, Cause::Stream, st.mem, st.bytes);
            prof.add(dp, br, Cause::FcuCompute, st.cycles - st.mem);
            stream_t += st.cycles;
            if (tlOn)
                timeline::counter("link_depth", tlBase + stream_t,
                                  double(links.depth()));
        } else {
            if (tlOn && segStart < 0) {
                segStart = int64_t(stream_t);
                segDp = dp;
            }
            // The diagonal block streams whole, and b through its FIFO.
            prof.add(dp, br, Cause::Stream, chainTerm.mem,
                     chainTerm.bytes + pathRows * sizeof(Value));
            prof.add(dp, br, Cause::FcuCompute,
                     chainTerm.cycles - chainTerm.mem);
            stream_t += chainTerm.cycles;

            bool dMiss = false;
            uint64_t diag_read =
                _rcu.cache().read(CacheVec::Diag, br, true, &dMiss);
            if (dMiss)
                prof.add(dp, br, Cause::CacheMiss, 0, lineBytes);
            uint64_t dep_in = dep_t;
            uint64_t start =
                std::max(stream_t + uint64_t(_params.pipelineDepth()),
                         dep_t) +
                diag_read;
            bool xwMiss = false;
            uint64_t xtWrite =
                _rcu.cache().write(CacheVec::Xt, br, &xwMiss);
            if (xwMiss)
                prof.add(dp, br, Cause::CacheMiss, 0, lineBytes);
            const uint64_t chain = pathRows * stepLat;
            dep_t = start + chain + xtWrite;
            prof.chain(br, stream_t, dep_in, start, chain, dep_t);
            t.seqCycles += chain;
            filled = false; // the tree ran in single-shot mode
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
    if (walk) {
        t.parCycles = stream_t;
        t.cycles =
            std::max(stream_t, dep_t) + uint64_t(_params.drainCycles());
        prof.add(DataPathType::DSymgs, -1, Cause::TreeDrain,
                 uint64_t(_params.drainCycles()));
        prof.commitSymgs(stream_t, dep_t,
                         uint64_t(_params.pipelineDepth()));
        if (memoized)
            memo->record(_rcu, t);
    } else {
        ++_timingMemoHits;
    }
    if (S.pathCount > 0) {
        std::copy(_xpad.begin(), _xpad.begin() + std::ptrdiff_t(rows),
                  x.begin());
        _rcu.setConfigured(S.lastDp);
        _memory.recordStream(S.totalStreamBytes);
        _fcu.noteOps(S.fcuOps);
        _rcu.notePeOps(S.peOps);
    }
    ALR_TRACE("symgs(sched): stream %llu cycles, %llu cycles in all",
              (unsigned long long)t.parCycles,
              (unsigned long long)t.cycles);
    commitRun({.base = tlBase, .timing = t, .parFlops = S.parFlops,
               .seqFlops = S.seqFlops, .usefulBytes = S.usefulBytes},
              timing);
}

DenseVector
Engine::runRelaxRound(const DenseVector &dist, RunTiming *timing)
{
    return relaxImpl(dist, false, nullptr, timing);
}

DenseVector
Engine::runRelaxRound(const DenseVector &dist,
                      const std::vector<uint8_t> &active_chunks,
                      RunTiming *timing)
{
    return relaxImpl(dist, false, &active_chunks, timing);
}

DenseVector
Engine::runLabelRound(const DenseVector &labels, RunTiming *timing)
{
    return relaxImpl(labels, true, nullptr, timing);
}

DenseVector
Engine::runLabelRound(const DenseVector &labels,
                      const std::vector<uint8_t> &active_chunks,
                      RunTiming *timing)
{
    return relaxImpl(labels, true, &active_chunks, timing);
}

DenseVector
Engine::relaxImpl(const DenseVector &dist, bool zero_addend,
                  const std::vector<uint8_t> *active_chunks,
                  RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::BFS ||
                   _table->kernel() == KernelType::SSSP,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(dist.size() == _ld->rows(), "operand length mismatch");

    const Index omega = _params.omega;
    const bool hops = _table->kernel() == KernelType::BFS;
    constexpr Value inf = std::numeric_limits<Value>::infinity();

    timeline::ScopedHostSpan hostSpan("relax", "run");
    const uint64_t tlBase = totalCycles();
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
    if (active_chunks) {
        ALR_ASSERT(active_chunks->size() >=
                       (_ld->cols() + omega - 1) / omega,
                   "frontier mask too short");
    }
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
            Value m = _fcu.vectorReduce(srcDist, addend, VecOp::Add,
                                        ReduceOp::Min, valid, &fcuOps);
            cand[r] = std::min(cand[r], m);
            parFlops += 2.0 * useful;
            usefulBytes += double(useful) * sizeof(Value);
        }
        uint64_t bc, streamedBytes;
        if (_params.skipEmptyBlockRows) {
            streamedBytes = uint64_t(occupied) * omega * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamRowsCycles(occupied);
        } else {
            streamedBytes = uint64_t(blk.size) * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamBlockCycles(blk.size);
        }
        if (prof.on()) {
            uint64_t memC = _memory.streamCycles(streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::Stream, memC,
                     streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, bc - memC);
        }
        t.cycles += bc;
        t.parCycles += bc;
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
    commitRun({.base = tlBase, .timing = t, .parFlops = parFlops,
               .usefulBytes = usefulBytes,
               .name = zero_addend ? "d-cc" : (hops ? "d-bfs" : "d-sssp")},
              timing);

    DenseVector next(dist.size());
    for (size_t v = 0; v < dist.size(); ++v)
        next[v] = std::min(dist[v], cand[v]);
    return next;
}

DenseVector
Engine::runPrRound(const DenseVector &rank,
                   const std::vector<Index> &outdeg, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::PageRank,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(rank.size() == _ld->rows() &&
                   outdeg.size() == _ld->rows(),
               "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("pagerank", "run");
    const uint64_t tlBase = totalCycles();
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
            sums[r] += _fcu.vectorReduce(pattern, contrib, VecOp::Mul,
                                         ReduceOp::Sum, {}, &fcuOps);
            parFlops += 2.0 * useful;
            usefulBytes += double(useful) * sizeof(Value);
        }
        uint64_t bc, streamedBytes;
        if (_params.skipEmptyBlockRows) {
            streamedBytes = uint64_t(occupied) * omega * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamRowsCycles(occupied);
        } else {
            streamedBytes = uint64_t(blk.size) * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamBlockCycles(blk.size);
        }
        if (prof.on()) {
            uint64_t memC = _memory.streamCycles(streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::Stream, memC,
                     streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, bc - memC);
        }
        t.cycles += bc;
        t.parCycles += bc;
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
    commitRun({.base = tlBase, .timing = t, .parFlops = parFlops,
               .usefulBytes = usefulBytes, .name = "d-pr"},
              timing);
    return sums;
}

double
Engine::sequentialOpFraction() const
{
    double total = _seqFlops.value() + _parFlops.value();
    return total > 0.0 ? _seqFlops.value() / total : 0.0;
}

double
Engine::seconds() const
{
    return _cycles.value() * _params.secondsPerCycle();
}

double
Engine::bandwidthUtilization() const
{
    double cycles = _cycles.value();
    if (cycles <= 0.0)
        return 0.0;
    return _usefulBytes.value() / (cycles * _params.bytesPerCycle());
}

double
Engine::cacheTimeFraction() const
{
    double cycles = _cycles.value();
    if (cycles <= 0.0)
        return 0.0;
    return _rcu.cache().busyCycles() / cycles;
}

void
Engine::reset()
{
    _memory.reset();
    _fcu.reset();
    _rcu.reset();
    _cycles.reset();
    _seqCycles.reset();
    _parCycles.reset();
    _seqFlops.reset();
    _parFlops.reset();
    _usefulBytes.reset();
    _runs.reset();
    _scheduleEvictions.reset();
    _runCycles.reset();
}

} // namespace alr
