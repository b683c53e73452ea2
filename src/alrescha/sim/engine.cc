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

namespace alr {

using profile::Cause;

/** Header of the persisted schedule-cache format ("Alrescha schedule
 *  cache").  Bump on any layout or key change: version 2 moved every
 *  key and checksum from byte-wise FNV-1a to hash::WordHasher, version
 *  3 dropped the timing-partition and D-SymGS level boundaries from
 *  each schedule, version 4 dropped the xValid, validRows and
 *  rowUseful arrays, which no run read, version 5 dropped every
 *  precomputed timing term (the timing walk computes them) and
 *  narrowed the params fingerprint to omega and skipEmptyBlockRows,
 *  and version 6 writes each distinct row store once, ahead of the
 *  schedules that name it, and dropped the SpMM stream bytes. */
constexpr uint32_t kSchedCacheMagic = 0xA15ECAC1;
constexpr uint32_t kSchedCacheVersion = 6;

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
    const Index operandLen = table.kernel() != KernelType::SymGS
                                 ? ld.cols()
                                 : std::max(ld.rows(), ld.cols());
    if (s.kernel != table.kernel() || s.omega != omega ||
        s.pathCount != table.entries().size() ||
        s.paddedOperand != size_t((operandLen + omega - 1) / omega) * omega)
        return false;
    const RowStore &R = *s.rows;
    for (size_t i = 0; i < s.pathCount; ++i) {
        const uint64_t r0 = uint64_t(s.blockRow[i]) * omega;
        const bool consecutive =
            s.contiguousRows && s.dp[i] != DataPathType::DSymgs;
        for (size_t rr = R.rowBegin[i]; rr < R.rowBegin[i + 1]; ++rr) {
            // Unsigned: a row below r0 wraps far past omega.
            const uint64_t r = R.rowIndex[rr];
            if (r >= ld.rows() || r - r0 >= omega ||
                (consecutive && rr > R.rowBegin[i] &&
                 r != uint64_t(R.rowIndex[rr - 1]) + 1))
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
        // A live schedule of the same matrix whose table has the same
        // row-store key holds exactly the records this one needs.
        const uint64_t rowKey = rowStoreKey(*_table, _params);
        auto sibling = std::find_if(
            _schedules.begin(), _schedules.end(), [&](const ScheduleSlot &s) {
                return s.ldGen == slot.ldGen && s.sched->rows->key == rowKey;
            });
        slot.sched = std::make_unique<ExecSchedule>(compileSchedule(
            *_ld, *_table, _params, &hostPool(),
            sibling != _schedules.end() ? sibling->sched->rows : nullptr));
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
    // serialized double, but the digest catches any corruption.  Each
    // distinct row store is written once, in the order schedules first
    // name it, and every schedule names its store by that position.
    std::vector<const RowStore *> stores;
    std::vector<uint32_t> storeOf;
    for (const ScheduleSlot &slot : _schedules) {
        const RowStore *rows = slot.sched->rows.get();
        auto at = std::find(stores.begin(), stores.end(), rows);
        storeOf.push_back(uint32_t(at - stores.begin()));
        if (at == stores.end())
            stores.push_back(rows);
    }
    std::ostringstream body;
    bio::writePod<uint32_t>(body, uint32_t(stores.size()));
    for (const RowStore *rows : stores)
        serializeRowStore(body, *rows);
    bio::writePod<uint32_t>(body, uint32_t(_schedules.size()));
    for (size_t i = 0; i < _schedules.size(); ++i) {
        const ScheduleSlot &slot = _schedules[i];
        bio::writePod<uint64_t>(body, slot.ldHash);
        bio::writePod<uint64_t>(body, slot.tableHash);
        bio::writePod<uint64_t>(body, uint64_t(slot.entryCount));
        bio::writePod<uint64_t>(body, uint64_t(slot.blockCount));
        bio::writePod<uint64_t>(body, uint64_t(slot.streamLen));
        bio::writePod<uint8_t>(body, uint8_t(slot.kernel));
        bio::writePod<uint32_t>(body, slot.omega);
        bio::writePod<uint32_t>(body, storeOf[i]);
        serializeSchedule(body, *slot.sched);
    }
    const std::string bytes = std::move(body).str();
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
        std::istringstream body(std::move(bytes));
        const uint32_t storeCount = bio::readPod<uint32_t>(body);
        if (storeCount > 4096)
            throw std::runtime_error("implausible row store count");
        std::vector<std::shared_ptr<const RowStore>> stores;
        for (uint32_t i = 0; i < storeCount; ++i)
            stores.push_back(
                std::make_shared<const RowStore>(deserializeRowStore(body)));
        std::vector<bool> named(storeCount, false);
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
            const uint32_t store = bio::readPod<uint32_t>(body);
            if (store >= storeCount)
                throw std::runtime_error("schedule names a missing row store");
            slot.sched = std::make_unique<ExecSchedule>(
                deserializeSchedule(body, stores[store]));
            // The first schedule to name a store counts its bytes.
            slot.sched->countsRows = !named[store];
            named[store] = true;
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

std::vector<Engine::StreamTerm>
Engine::rowStreamTerms() const
{
    std::vector<StreamTerm> terms(size_t(_params.omega) + 1);
    for (Index r = 0; r <= _params.omega; ++r) {
        const uint64_t bytes = uint64_t(r) * _params.omega * sizeof(Value);
        const uint64_t mem = _memory.streamCycles(bytes);
        terms[r] = {std::max<uint64_t>(r, mem), mem, bytes};
    }
    return terms;
}

Engine::StreamTerm
Engine::blockStreamTerm(Index payload) const
{
    const uint64_t bytes = uint64_t(payload) * sizeof(Value);
    const uint64_t mem = _memory.streamCycles(bytes);
    return {std::max<uint64_t>(_params.omega, mem), mem, bytes};
}

namespace {

/** @p t with its stream terms (parCycles) swapped for @p stream. */
RunTiming
withStream(RunTiming t, uint64_t stream)
{
    t.cycles = t.cycles - t.parCycles + stream;
    t.parCycles = stream;
    return t;
}

} // namespace

/**
 * One run's timing walk.  It owns the run's timing state -- the clock
 * (the stream front), the fill flag, the block row whose out chunk is
 * live, the streamed bytes, the profiler scope and the modeled-plane
 * data-path segment -- and has one method per charge rule, so SpMV,
 * SpMM, SymGS and the graph rounds charge every path through one copy
 * of each.  A run hands it its schedule's timing memo (a frontier
 * round hands none): a hit replays the recorded walk (walking() is
 * false), a miss walks and record()s.  Runs the profiler or the
 * modeled-plane timeline observes always walk.  Every method is
 * inline: a walk calls them once or more per path.
 */
class Engine::Walk
{
  public:
    struct Options
    {
        /** Draw the modeled-plane data-path, reconfig and fill spans
         *  (SpMV and SymGS; SpMM and the graph rounds draw none). */
        bool spans = false;
        /** A min-relaxation (D-BFS, D-SSSP): the tree fills for min,
         *  and each out chunk is read to compare with the old
         *  distances before it is written back (Table 1, phase 3). */
        bool relaxation = false;
        /** The data path charged with the drain when no path ran. */
        DataPathType dp = DataPathType::Gemv;
    };

    Walk(Engine &engine, TimingMemo *memo, const Options &opts)
        : _engine(engine), _rcu(engine._rcu), _base(engine.totalCycles()),
          _fill(uint64_t(engine._fcu.fillLatency(
              opts.relaxation ? ReduceOp::Min : ReduceOp::Sum))),
          _drain(uint64_t(engine._params.drainCycles())),
          _lineBytes(engine._params.cacheLineBytes),
          _relaxation(opts.relaxation), _dp(opts.dp)
    {
        const bool observed = timeline::recording(timeline::kPidModeled);
        _spans = opts.spans && observed;
        _memo = (_prof.on() || observed) ? nullptr : memo;
        if (_memo && _memo->replay(_rcu, _replayed)) {
            _walking = false;
            ++engine._timingMemoHits;
        }
    }

    /** False when the memo replayed the run: skip the walk. */
    bool walking() const { return _walking; }
    /** The replayed timing of a memo hit. */
    const RunTiming &replayed() const { return _replayed; }
    /** Whether the run draws modeled-plane spans. */
    bool spans() const { return _spans; }
    /** The engine's cycle count when the run started (its timeline
     *  base, RunCommit::base). */
    uint64_t base() const { return _base; }
    /** The stream front. */
    uint64_t clock() const { return _clock; }
    profile::RunScope &prof() { return _prof; }

    /**
     * Start path (@p dp, @p br): end the data-path segment if @p dp
     * differs, switch to @p dp through Rcu::reconfigure (the drain
     * hides part of a switch, §4.4), and refill the tree after a
     * switch.  A D-SymGS chain (@p pipelined false) runs the tree
     * single-shot: it fills nothing, and the next pipelined path
     * refills.
     */
    void enter(DataPathType dp, Index br, bool pipelined = true)
    {
        if (_spans && _segStart >= 0 && dp != _segDp)
            closeSegment();
        _dp = dp;
        _br = br;
        uint64_t hidden = 0;
        const uint64_t cfg = _rcu.reconfigure(dp, &hidden);
        if (cfg) {
            if (_spans)
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               _base + _clock, cfg);
            _prof.add(dp, br, Cause::ReconfigHidden, hidden);
            _prof.add(dp, br, Cause::ReconfigExposed, cfg - hidden);
            _clock += cfg;
            _filled = false;
        }
        if (!pipelined) {
            _filled = false;
        } else if (!_filled) {
            if (_spans && _fill)
                timeline::span("fill", "fcu", timeline::kTidFcu,
                               _base + _clock, _fill);
            _prof.add(dp, br, Cause::FcuCompute, _fill);
            _clock += _fill;
            _filled = true;
        }
        if (_spans && _segStart < 0) {
            _segStart = int64_t(_clock);
            _segDp = dp;
        }
    }

    /** Make block row @p br's out chunk live, writing the previous one
     *  back (read first in a relaxation) on a block-row change. */
    void outRow(Index br)
    {
        if (int64_t(br) == _outRow)
            return;
        writeBack();
        _outRow = br;
    }

    /** A prefetched operand-chunk read: its contention cycles stall
     *  the stream front, and a miss fills a line. */
    void read(CacheVec vec, Index chunk) { fetch(vec, chunk, _br); }

    /** A read on the dependence timeline (a chain's diagonal chunk):
     *  returns its latency, and a miss's line counts as bytes. */
    uint64_t dependentRead(CacheVec vec, Index chunk)
    {
        bool miss = false;
        const uint64_t c = _rcu.cache().read(vec, chunk, true, &miss);
        if (miss)
            _prof.add(_dp, _br, Cause::CacheMiss, 0, _lineBytes);
        return c;
    }

    /** A buffered write of chunk @p chunk, charged to that block row:
     *  returns its cycles, and a miss allocates a line. */
    uint64_t write(CacheVec vec, Index chunk)
    {
        bool miss = false;
        const uint64_t c = _rcu.cache().write(vec, chunk, &miss);
        if (miss)
            _prof.add(_dp, chunk, Cause::CacheMiss, 0, _lineBytes);
        return c;
    }

    /** Stream a path's payload: the memory-side cycles are Stream,
     *  the issue-bound rest FcuCompute.  @p extra_bytes ride along (a
     *  chain's b through its FIFO). */
    void stream(const StreamTerm &st, uint64_t extra_bytes = 0)
    {
        _prof.add(_dp, _br, Cause::Stream, st.mem, st.bytes + extra_bytes);
        _prof.add(_dp, _br, Cause::FcuCompute, st.cycles - st.mem);
        _clock += st.cycles;
        _par += st.cycles;
        _streamed += st.bytes + extra_bytes;
    }

    /**
     * The walk of a GEMV-class schedule (every table but SymGS's):
     * each path switches, makes its block row's out chunk live, reads
     * its operand chunk -- a D-PR path its out-degree chunk too,
     * through the second port (Table 1) -- and streams @p term(i).
     * Under a frontier mask @p active, a path whose source chunk is
     * inactive cannot improve any candidate, so its block never leaves
     * memory.
     */
    template <class Term>
    void gemvPaths(const ExecSchedule &S, Term term,
                   const std::vector<uint8_t> *active = nullptr)
    {
        for (size_t i = 0; i < S.pathCount; ++i) {
            if (active && !(*active)[S.blockCol[i]])
                continue;
            enter(S.dp[i], S.blockRow[i]);
            outRow(S.blockRow[i]);
            read(S.operandVec[i], S.blockCol[i]);
            if (S.dp[i] == DataPathType::DPr)
                read(CacheVec::Aux, S.blockCol[i]);
            stream(term(i));
        }
    }

    /** A GEMV-class run's timing: the memo's replay, or the gemvPaths
     *  walk with the schedule's own stream terms, recorded. */
    RunTiming gemvRun(const ExecSchedule &S,
                      const std::vector<uint8_t> *active = nullptr)
    {
        if (!_walking)
            return _replayed;
        const std::vector<StreamTerm> rowTerms = _engine.rowStreamTerms();
        gemvPaths(
            S, [&](size_t i) { return _engine.gemvStreamTerm(S, i, rowTerms); },
            active);
        const RunTiming t = end();
        record(t);
        return t;
    }

    /**
     * End the walk: write the live out chunk back, end the segment and
     * drain the tree.  The run lasts until the later of the stream
     * front and @p dep, the dependence timeline's end, plus the drain;
     * its parCycles are the summed stream terms.
     */
    RunTiming end(uint64_t dep = 0)
    {
        writeBack();
        if (_spans && _segStart >= 0)
            closeSegment();
        _prof.add(_dp, -1, Cause::TreeDrain, _drain);
        return {std::max(_clock, dep) + _drain, 0, _par};
    }

    /** Record @p t as the walk's timing, when the memo keys the run. */
    void record(const RunTiming &t)
    {
        if (_memo)
            _memo->record(_rcu, t);
    }

    /** What a run leaves besides its timing: the payload its walk
     *  streamed (a replay streams @p S's whole payload), its @p fcu and
     *  @p pe operations, and on a replay the switch on @p S's last data
     *  path, where the walk's last path left it. */
    void ranSchedule(const ExecSchedule &S, const FcuOpCounts &fcu,
                     double pe)
    {
        if (!_walking && S.pathCount > 0)
            _rcu.setConfigured(S.lastDp);
        _engine._memory.recordStream(_walking ? _streamed
                                              : S.totalStreamBytes);
        _engine._fcu.noteOps(fcu);
        _rcu.notePeOps(pe);
    }

  private:
    void closeSegment()
    {
        timeline::span(toString(_segDp), "datapath", timeline::kTidDataPath,
                       _base + uint64_t(_segStart),
                       _clock - uint64_t(_segStart));
        _segStart = -1;
    }

    void fetch(CacheVec vec, Index chunk, int64_t row)
    {
        bool miss = false;
        const uint64_t c = _rcu.cache().read(vec, chunk, false, &miss);
        _prof.add(_dp, row, Cause::CacheMiss, c, miss ? _lineBytes : 0);
        _clock += c;
    }

    void writeBack()
    {
        if (_outRow < 0)
            return;
        if (_relaxation)
            fetch(CacheVec::Out, Index(_outRow), _outRow);
        _clock += write(CacheVec::Out, Index(_outRow));
    }

    Engine &_engine;
    Rcu &_rcu;
    profile::RunScope _prof;
    TimingMemo *_memo = nullptr;
    RunTiming _replayed;
    bool _walking = true;
    bool _spans = false;
    const uint64_t _base;
    const uint64_t _fill;
    const uint64_t _drain;
    const uint64_t _lineBytes;
    const bool _relaxation;

    uint64_t _clock = 0;
    uint64_t _par = 0;
    uint64_t _streamed = 0;
    bool _filled = false;
    DataPathType _dp;
    Index _br = 0;
    int64_t _outRow = -1;
    int64_t _segStart = -1;
    DataPathType _segDp{};
};

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
        // Every SymGS block row ends in the chain that pops its GEMVs,
        // so a run leaves the link stack empty.
        timeline::counter("link_depth", run.base + t.cycles, 0.0);
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

    // Functional pass: block-row groups touch disjoint output rows, so
    // they run in parallel on the host pool; within a group the path
    // order (and thus the FP accumulation order into y) is the
    // interpreter's.  The ω-wide work happens in the replay kernels
    // against the staged operand, which parallel workers share
    // read-only.
    const Value *xpad = stageOperand(S, x);
    const size_t groups = S.groupCount();
    if (S.parallelSafe && groups > 1) {
        hostPool().parallelForChunks(0, groups, [&](size_t gb, size_t ge) {
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
    Walk w(*this, memo, {.spans = true});
    const RunTiming t = w.gemvRun(S);
    w.ranSchedule(S, S.fcuOps, S.peOps);
    commitRun({.base = w.base(), .timing = t, .parFlops = S.parFlops,
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

    // Functional pass (see runSpmv): the block streams once, its rows
    // issue once per right-hand side.  The operands stage interleaved,
    // replay::kSpmmMaxRhs at a time (replay::SpmmFn), so the replay
    // kernels carry the right-hand sides across the vector lanes, and
    // the results come back interleaved the same way.
    std::vector<DenseVector> ys(k, DenseVector(rows));
    const size_t groups = S.groupCount();
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
        if (S.parallelSafe && groups > 1) {
            hostPool().parallelForChunks(0, groups, [&](size_t gb,
                                                        size_t ge) {
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
    // depend on k alone, differ: the block streams its SpMV's payload
    // once and its rows issue once per right-hand side (the occupied
    // rows when empty rows are skipped, else all omega).  It therefore
    // walks as the SpMV does with its own stream terms, and shares the
    // SpMV's memo entries, which hold SpMV timings: a walk records its
    // timing with the SpMV stream terms, and a replay swaps in its own.
    Walk w(*this, memo, {});
    const std::vector<StreamTerm> rowTerms = rowStreamTerms();
    auto spmmTerm = [&](size_t i) {
        const size_t rowCount =
            _params.skipEmptyBlockRows ? S.pathRows(i) : size_t(S.omega);
        StreamTerm st = gemvStreamTerm(S, i, rowTerms);
        st.cycles = std::max(st.mem, uint64_t(rowCount) * k);
        return st;
    };
    RunTiming t;
    if (w.walking()) {
        uint64_t spmvStream = 0;
        w.gemvPaths(S, [&](size_t i) {
            spmvStream += gemvStreamTerm(S, i, rowTerms).cycles;
            return spmmTerm(i);
        });
        t = w.end();
        w.record(withStream(t, spmvStream));
    } else {
        uint64_t stream = 0;
        for (size_t i = 0; i < S.pathCount; ++i)
            stream += spmmTerm(i).cycles;
        t = withStream(w.replayed(), stream);
    }
    // The k - 1 repeats of every access this run made or replayed
    // (TimingMemo::replay flushed what came before; without the memo,
    // nothing is pending between runs).
    const CacheModel::Counts once = _rcu.cache().pending();
    _rcu.cache().addPending({.reads = (k - 1) * once.reads,
                             .writes = (k - 1) * once.writes,
                             .hits = (k - 1) * (once.reads + once.writes)});
    const double rhs = double(k);
    w.ranSchedule(S,
                  {S.fcuOps.alu * rhs, S.fcuOps.reduce * rhs,
                   S.fcuOps.mul * rhs, S.fcuOps.add * rhs},
                  S.peOps * rhs);
    commitRun({.base = w.base(), .timing = t, .parFlops = S.parFlops * rhs,
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

    const auto [sched, memo] = prepare();
    const ExecSchedule &S = *sched;

    timeline::ScopedHostSpan hostSpan("symgs.sched", "run");

    // Functional pass: the iterate stages into the padded aligned
    // buffer, the sweep kernel updates it in place -- every block row's
    // GEMVs through the link stack, then its serialized D-SymGS chain
    // (replay::SweepFn) -- and it is copied back.  A schedule whose
    // dependence levels carry enough work (ExecSchedule::wideLevels)
    // runs them one after another, each level's block rows at once on
    // the host pool (replay::sweepLevels).  Any other sweep is one
    // serial call in natural order, and so is one on a one-thread pool
    // or from a pool worker, where parallelForChunks would run the
    // participants inline and the level order serially is slower.
    // Both give the same bits.
    Value *xw = stageOperand(S, x);
    const Value *diag = _ld->diagonal().data();
    const size_t scratch = size_t(S.linkPeak) * S.omega;
    ThreadPool &pool = hostPool();
    if (pool.threadCount() > 1 && !ThreadPool::onWorkerThread() &&
        S.wideLevels()) {
        _links.resize(size_t(pool.threadCount()) * scratch);
        replay::sweepLevels(S, pool, b.data(), diag, xw, _links.data());
    } else {
        _links.resize(scratch);
        S.fns.sweep(S, b.data(), diag, xw, _links.data(), nullptr, 0,
                    S.groupCount());
    }
    std::copy(xw, xw + x.size(), x.begin());

    // Timing: replay the memo, or walk the interpreter's exact cache and
    // switch sequence.  The stream front is the walk's clock; the chains
    // run on a second, dependence timeline.
    Walk w(*this, memo, {.spans = true, .dp = DataPathType::DSymgs});
    RunTiming t = w.replayed();
    if (w.walking()) {
        const std::vector<StreamTerm> rowTerms = rowStreamTerms();
        // Every D-SymGS chain streams one whole diagonal block.
        const StreamTerm chainTerm = blockStreamTerm(
            LocallyDenseMatrix::payloadSize(_ld->layout(), true, S.omega));
        const uint64_t pipeline = uint64_t(_params.pipelineDepth());
        // A chain step: multiply (ALU), then subtract and divide (PEs).
        const uint64_t stepLat =
            uint64_t(_params.aluLatency + 2 * _params.peLatency);
        uint64_t depT = 0; // completion of the dependence chain
        uint64_t seq = 0;
        uint64_t depth = 0; // link-stack occupancy
        for (size_t i = 0; i < S.pathCount; ++i) {
            const DataPathType dp = S.dp[i];
            const Index br = S.blockRow[i];
            if (dp == DataPathType::Gemv) {
                w.enter(dp, br);
                w.read(S.operandVec[i], S.blockCol[i]);
                w.stream(gemvStreamTerm(S, i, rowTerms));
                ++depth;
                if (w.spans())
                    timeline::counter("link_depth", w.base() + w.clock(),
                                      double(depth));
                continue;
            }
            // The diagonal block streams whole, and b through its FIFO.
            // The chain starts once the pipeline has filled behind the
            // stream front, the previous link is done and the diagonal
            // chunk is read; x^t's chunk writes back after it.
            const size_t pathRows = S.pathRows(i);
            w.enter(dp, br, false);
            w.stream(chainTerm, pathRows * sizeof(Value));
            const uint64_t diagRead = w.dependentRead(CacheVec::Diag, br);
            const uint64_t depIn = depT;
            const uint64_t start =
                std::max(w.clock() + pipeline, depT) + diagRead;
            const uint64_t chain = pathRows * stepLat;
            depT = start + chain + w.write(CacheVec::Xt, br);
            w.prof().chain(br, w.clock(), depIn, start, chain, depT);
            seq += chain;
            depth = 0;
            if (w.spans()) {
                timeline::span("d-symgs chain", "datapath",
                               timeline::kTidChain, w.base() + start, chain);
                timeline::counter("link_depth", w.base() + start, 0.0);
            }
        }
        t = w.end(depT);
        t.seqCycles = seq;
        // The whole stream front is pipelined work.
        t.parCycles = w.clock();
        w.prof().commitSymgs(w.clock(), depT, pipeline);
        w.record(t);
    }
    w.ranSchedule(S, S.fcuOps, S.peOps);
    _rcu.linkStack().note(S.linkPushes, S.linkPushes, S.linkPeak);
    commitRun({.base = w.base(), .timing = t, .parFlops = S.parFlops,
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
    ALR_ASSERT(dist.size() == _ld->rows() && _ld->rows() == _ld->cols(),
               "a graph round needs a square matrix and one value per "
               "vertex");
    ALR_ASSERT(!active_chunks ||
                   active_chunks->size() >=
                       (_ld->cols() + _params.omega - 1) / _params.omega,
               "frontier mask too short");

    const auto [sched, memo] = prepare();
    const ExecSchedule &S = *sched;
    const RowStore &R = *S.rows;
    const Index omega = S.omega;
    const bool hops = _table->kernel() == KernelType::BFS;
    constexpr Value inf = std::numeric_limits<Value>::infinity();

    timeline::ScopedHostSpan hostSpan("relax", "run");

    // Functional pass: a lane is an edge when its weight is non-zero.
    // Each row's candidate is the min over its edges of the source's
    // distance plus the addend (one hop, the weight, or nothing for
    // labels), reduced in the FCU tree's order with +inf in the other
    // lanes, as the hardware masks them.
    const Value *xpad = stageOperand(S, dist);
    DenseVector cand(dist.size(), inf);
    std::vector<Value> lanes(fcutree::ceilPow2(omega));
    uint64_t useful = 0;
    for (size_t i = 0; i < S.pathCount; ++i) {
        if (active_chunks && !(*active_chunks)[S.blockCol[i]])
            continue;
        const Value *x = xpad + S.xOff[i];
        for (size_t rr = R.rowBegin[i]; rr < R.rowBegin[i + 1]; ++rr) {
            const Value *v = &R.values[rr * omega];
            for (Index lc = 0; lc < omega; ++lc) {
                const bool edge = v[lc] != 0.0;
                useful += edge;
                lanes[lc] = edge ? x[lc] + (zero_addend ? 0.0
                                            : hops      ? 1.0
                                                        : v[lc])
                                 : inf;
            }
            Value &c = cand[R.rowIndex[rr]];
            c = std::min(c, fcutree::minTree(lanes.data(), omega));
        }
    }

    // Timing: a frontier round's paths depend on its mask, so only a
    // round without one reads and writes the memo.  The ALUs add, and
    // the tree reduces, only the edge lanes.
    Walk w(*this, active_chunks ? nullptr : memo, {.relaxation = true});
    const RunTiming t = w.gemvRun(S, active_chunks);
    const double ops = double(useful);
    w.ranSchedule(S, {.alu = ops, .reduce = ops, .add = ops}, 0.0);
    commitRun({.base = w.base(), .timing = t, .parFlops = 2.0 * ops,
               .usefulBytes = ops * sizeof(Value),
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
    ALR_ASSERT(rank.size() == _ld->rows() && _ld->rows() == _ld->cols() &&
                   outdeg.size() == _ld->rows(),
               "a graph round needs a square matrix and one value per "
               "vertex");

    const auto [sched, memo] = prepare();
    const ExecSchedule &S = *sched;
    const RowStore &R = *S.rows;
    const Index omega = S.omega;

    timeline::ScopedHostSpan hostSpan("pagerank", "run");

    // Phase 1 divides each source's rank by its out-degree on the RCU
    // PEs, once for every block that reads it; the quotient is the same
    // for each, so it is staged once per vertex.  Each row then sums
    // the pattern (1.0 on an edge) times the quotients in the FCU
    // tree's order.
    DenseVector contrib(rank.size(), 0.0);
    std::vector<Index> divisions(S.paddedOperand / omega, 0);
    for (size_t v = 0; v < rank.size(); ++v) {
        if (outdeg[v] > 0) {
            contrib[v] = rank[v] / Value(outdeg[v]);
            ++divisions[v / omega];
        }
    }
    const Value *xpad = stageOperand(S, contrib);
    DenseVector sums(_ld->rows(), 0.0);
    std::vector<Value> lanes(fcutree::ceilPow2(omega));
    double peOps = 0.0;
    for (size_t i = 0; i < S.pathCount; ++i) {
        peOps += divisions[S.blockCol[i]];
        const Value *x = xpad + S.xOff[i];
        for (size_t rr = R.rowBegin[i]; rr < R.rowBegin[i + 1]; ++rr) {
            const Value *v = &R.values[rr * omega];
            for (Index lc = 0; lc < omega; ++lc)
                lanes[lc] = (v[lc] != 0.0 ? 1.0 : 0.0) * x[lc];
            sums[R.rowIndex[rr]] += fcutree::sumTree(lanes.data(), omega);
        }
    }

    Walk w(*this, memo, {});
    const RunTiming t = w.gemvRun(S);
    w.ranSchedule(S, S.fcuOps, peOps);
    commitRun({.base = w.base(), .timing = t, .parFlops = S.parFlops,
               .usefulBytes = S.usefulBytes, .name = "d-pr"},
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
