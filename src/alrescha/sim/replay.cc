/**
 * @file
 * Replay dispatcher: the portable scalar kernel table, the runtime-ω
 * generic arms, and the ISA selection logic (see replay.hh).
 *
 * This TU compiles with no ISA flags -- the portable scalar table
 * instantiates replay_body.hh at ALR_REPLAY_LANES = 0, which uses no
 * vector extensions at all -- and, like every replay TU, with
 * -ffp-contract=off (the whole project builds with it; a fused
 * multiply-add would round once where the canonical tree rounds twice
 * and break the bit-identity contract).  The vector ISA tables live
 * in their own TUs (replay_sse2/avx2/avx512/neon.cc), each compiled
 * with exactly its -m flags; CMake defines ALR_REPLAY_HAVE_* here for
 * each one it compiled, and the dispatcher only references those.
 *
 * Bit-identity argument for the full-width gather-plan loads: the
 * interpreter gathers each operand chunk per lane with out-of-range
 * lanes forced to 0.0, while these kernels load ω lanes straight from
 * the chunk-padded staging buffer.  The staged tail is 0.0 and every
 * value lane past the matrix edge is 0.0 too (encode zero-fills
 * blocks), so the products -- and the canonical tree over them -- are
 * identical.
 */

#include "alrescha/sim/replay.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "common/timeline.hh"
#include "common/version.hh"

#include "alrescha/sim/reduce.hh"
#include "alrescha/sim/replay_isa.hh"

#define ALR_REPLAY_NS portable
#define ALR_REPLAY_LANES 0
#include "alrescha/sim/replay_body.hh"

namespace alr {
namespace replay {
namespace {

/** Scratch for the runtime-ω generic arms: stack for the common small
 *  widths, heap past that.  (The specialized kernels need none.) */
struct GenericBuf
{
    explicit GenericBuf(Index omega)
    {
        size_t n = fcutree::ceilPow2(omega);
        if (n <= sizeof(stack) / sizeof(stack[0])) {
            p = stack;
        } else {
            heap.resize(n);
            p = heap.data();
        }
    }
    Value *p;
    Value stack[16];
    std::vector<Value> heap;
};

/** All row dots of runtime-ω store path @p j (buf holds ceilPow2(ω)
 *  lanes; sumTree zeroes its own pad lanes). */
template <typename Sink>
inline void
pathRowsGeneric(const ExecSchedule &S, size_t j, const Value *x,
                Value *buf, Sink &&sink)
{
    const Index omega = S.omega;
    const RowStore &R = *S.rows;
    const Value *vals = R.values.data();
    for (size_t rr = R.rowBegin[j]; rr < R.rowBegin[j + 1]; ++rr) {
        const Value *v = vals + rr * size_t(omega);
        for (Index l = 0; l < omega; ++l)
            buf[l] = v[l] * x[l];
        sink(rr, fcutree::sumTree(buf, omega));
    }
}

// ---- runtime-ω generic arms (any ω; always scalar) ----

void
spmvGeneric(const ExecSchedule &S, const Value *xpad, Value *y,
            size_t pBegin, size_t pEnd)
{
    GenericBuf buf(S.omega);
    const Index *rowIndex = S.rows->rowIndex.data();
    for (size_t i = pBegin; i < pEnd; ++i)
        pathRowsGeneric(S, i, xpad + S.xOff[i], buf.p,
                        [y, rowIndex](size_t rr, Value d) {
                            y[rowIndex[rr]] += d;
                        });
}

void
spmmGeneric(const ExecSchedule &S, const Value *xt, Value *yt, size_t k,
            size_t pBegin, size_t pEnd)
{
    const Index omega = S.omega;
    const size_t stride = spmmStride(k);
    const RowStore &R = *S.rows;
    const Value *vals = R.values.data();
    GenericBuf buf(omega);
    for (size_t i = pBegin; i < pEnd; ++i) {
        const Value *x = xt + size_t(S.xOff[i]) * stride;
        for (size_t rr = R.rowBegin[i]; rr < R.rowBegin[i + 1]; ++rr) {
            const Value *v = vals + rr * size_t(omega);
            Value *y = yt + size_t(R.rowIndex[rr]) * stride;
            for (size_t j = 0; j < k; ++j) {
                for (Index l = 0; l < omega; ++l)
                    buf.p[l] = v[l] * x[l * stride + j];
                y[j] += fcutree::sumTree(buf.p, omega);
            }
        }
    }
}

void
sweepGeneric(const ExecSchedule &S, const Value *b, const Value *diag,
             Value *xw, Value *links, const size_t *order, size_t begin,
             size_t end)
{
    const Index omega = S.omega;
    const RowStore &R = *S.rows;
    const Index *rowIndex = R.rowIndex.data();
    const Value *vals = R.values.data();
    const bool reverse = S.reversed();
    GenericBuf buf(omega), acc(omega);
    for (size_t k = begin; k < end; ++k) {
        const size_t g = order ? order[k] : k;
        const size_t first = S.groupBegin[g];
        const size_t gemvs = S.groupBegin[g + 1] - 1 - first;
        const size_t j0 = S.groupFirst(g);
        const Index r0 = S.blockRow[first] * omega;
        for (size_t e = 0; e < gemvs; ++e) {
            Value *slot = links + e * omega;
            std::fill(slot, slot + omega, 0.0);
            pathRowsGeneric(S, j0 + e, xw + S.xOff[first + e], buf.p,
                            [slot, r0, rowIndex](size_t rr, Value d) {
                                slot[rowIndex[rr] - r0] = d;
                            });
        }
        std::fill(acc.p, acc.p + omega, 0.0);
        for (size_t e = gemvs; e-- > 0;)
            for (Index l = 0; l < omega; ++l)
                acc.p[l] += links[e * omega + l];
        const size_t c = R.rowBegin[j0 + gemvs];
        const size_t steps = R.rowBegin[j0 + gemvs + 1] - c;
        for (size_t n = 0; n < steps; ++n) {
            const size_t rr = reverse ? c + steps - 1 - n : c + n;
            const Index r = rowIndex[rr];
            const Index lr = r - r0;
            const Value *v = vals + rr * size_t(omega);
            for (Index l = 0; l < omega; ++l)
                buf.p[l] = l == lr ? 0.0 : v[l] * xw[r0 + l];
            xw[r] = (b[r] - (acc.p[lr] + fcutree::sumTree(buf.p, omega))) /
                    diag[r];
        }
    }
}

// ---- runtime ISA availability ----

/** CPU executes @p mode's instructions (compiled-in or not). */
bool
cpuSupports(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Scalar:
        return true;
#if defined(__x86_64__) || defined(__i386__)
    case SimdMode::Sse2:
        return true; // x86-64 baseline
    case SimdMode::Avx2:
        return __builtin_cpu_supports("avx2") != 0;
    case SimdMode::Avx512:
        return __builtin_cpu_supports("avx512f") != 0;
#elif defined(__aarch64__)
    case SimdMode::Neon:
        return true; // aarch64 baseline
#endif
    default:
        return false;
    }
}

/** The table for @p mode when its TU was compiled in, else null. */
const detail::KernelTable *
compiledTable(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Scalar:
        return detail::scalarTable();
#if defined(ALR_REPLAY_HAVE_SSE2)
    case SimdMode::Sse2:
        return detail::sse2Table();
#endif
#if defined(ALR_REPLAY_HAVE_AVX2)
    case SimdMode::Avx2:
        return detail::avx2Table();
#endif
#if defined(ALR_REPLAY_HAVE_AVX512)
    case SimdMode::Avx512:
        return detail::avx512Table();
#endif
#if defined(ALR_REPLAY_HAVE_NEON)
    case SimdMode::Neon:
        return detail::neonTable();
#endif
    default:
        return nullptr;
    }
}

void
warnFallback(SimdMode wanted, const char *got)
{
    static std::atomic<bool> warned{false};
    if (warned.exchange(true))
        return;
    std::fprintf(stderr,
                 "alrescha: replay ISA '%s' unavailable "
                 "(not compiled in or not supported by this CPU); "
                 "falling back to '%s'\n",
                 toString(wanted), got);
}

void
warnBadForce(const char *text)
{
    static std::atomic<bool> warned{false};
    if (warned.exchange(true))
        return;
    std::fprintf(stderr,
                 "alrescha: ignoring invalid ALR_SIMD_FORCE='%s' "
                 "(want auto|scalar|sse2|avx2|avx512|neon)\n",
                 text);
}

} // namespace

namespace detail {

const KernelTable *
scalarTable()
{
    static const KernelTable t = portable::makeTable("scalar");
    return &t;
}

} // namespace detail

bool
simdAvailable()
{
#if defined(ALR_REPLAY_HAVE_SSE2) || defined(ALR_REPLAY_HAVE_AVX2) || \
    defined(ALR_REPLAY_HAVE_AVX512) || defined(ALR_REPLAY_HAVE_NEON)
    return true;
#else
    return false;
#endif
}

const char *
compiledIsas()
{
    return "scalar"
#if defined(ALR_REPLAY_HAVE_SSE2)
           ",sse2"
#endif
#if defined(ALR_REPLAY_HAVE_AVX2)
           ",avx2"
#endif
#if defined(ALR_REPLAY_HAVE_AVX512)
           ",avx512"
#endif
#if defined(ALR_REPLAY_HAVE_NEON)
           ",neon"
#endif
        ;
}

const char *
omegaSpecializations()
{
    return "2,4,8";
}

const char *
toString(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Auto:
        return "auto";
    case SimdMode::Scalar:
        return "scalar";
    case SimdMode::Sse2:
        return "sse2";
    case SimdMode::Avx2:
        return "avx2";
    case SimdMode::Avx512:
        return "avx512";
    case SimdMode::Neon:
        return "neon";
    }
    return "scalar";
}

bool
parseSimdMode(const char *text, SimdMode *mode)
{
    struct Entry
    {
        const char *name;
        SimdMode mode;
    };
    static const Entry table[] = {
        {"auto", SimdMode::Auto},     {"scalar", SimdMode::Scalar},
        {"sse2", SimdMode::Sse2},     {"avx2", SimdMode::Avx2},
        {"avx512", SimdMode::Avx512}, {"neon", SimdMode::Neon},
    };
    for (const Entry &e : table) {
        if (std::strcmp(text, e.name) == 0) {
            *mode = e.mode;
            return true;
        }
    }
    return false;
}

const detail::KernelTable *
select(SimdMode mode)
{
    // The env override is resolved per call, not cached: tests flip it
    // between engine constructions to simulate machines without the
    // compiled-in ISA.
    if (mode == SimdMode::Auto) {
        if (const char *e = std::getenv("ALR_SIMD_FORCE");
            e != nullptr && *e != '\0') {
            SimdMode forced;
            if (parseSimdMode(e, &forced))
                mode = forced;
            else
                warnBadForce(e);
        }
    }
    // Widest-first fallback chain; a forced mode starts the walk at
    // its own position, so it never silently upgrades.
    static const SimdMode chain[] = {SimdMode::Avx512, SimdMode::Avx2,
                                     SimdMode::Sse2, SimdMode::Neon,
                                     SimdMode::Scalar};
    bool walking = mode == SimdMode::Auto;
    for (SimdMode c : chain) {
        if (!walking) {
            if (c != mode)
                continue;
            walking = true;
        }
        const detail::KernelTable *t = compiledTable(c);
        if (t != nullptr && cpuSupports(c)) {
            if (mode != SimdMode::Auto && c != mode)
                warnFallback(mode, t->name);
            return t;
        }
    }
    return detail::scalarTable();
}

const char *
isaName()
{
    return select(SimdMode::Auto)->name;
}

const char *
selectedName(SimdMode mode)
{
    return select(mode)->name;
}

void
writeVersionJson(json::Writer &w, SimdMode mode)
{
    w.beginObject(true)
        .member("git", version::gitDescribe())
        .member("simd_build", version::simdBuild())
        .member("simd_runtime", selectedName(mode))
        .member("omega_specializations", omegaSpecializations())
        .end();
}

void
specialize(ExecSchedule &S, const AccelParams &params)
{
    const int oi = detail::omegaIndex(S.omega);
    if (oi >= 0) {
        const detail::KernelTable *t = select(params.simdMode);
        S.fns.spmv = t->spmv[oi];
        S.fns.spmm = t->spmm[oi];
        S.fns.sweep = t->sweep[oi];
    } else {
        S.fns.spmv = &spmvGeneric;
        S.fns.spmm = &spmmGeneric;
        S.fns.sweep = &sweepGeneric;
    }
}

void
sweepLevels(const ExecSchedule &S, ThreadPool &pool, const Value *b,
            const Value *diag, Value *xw, Value *links)
{
    // Every level splits into one contiguous slice per participant, and
    // the slices are numbered level by level.  Participants claim them
    // in that order and start one only when every slice of the levels
    // below is done, so the first l * parties slices done are exactly
    // those of levels 0 .. l - 1.  Whoever runs takes the slices of a
    // participant that does not yet (a worker still waking, preempted,
    // or busy with another region): the caller alone can finish the
    // sweep.
    const size_t parties = size_t(pool.threadCount());
    const size_t scratch = size_t(S.linkPeak) * S.omega;
    const size_t slices = S.levelCount() * parties;
    struct Counters
    {
        alignas(64) std::atomic<size_t> next{0};
        alignas(64) std::atomic<size_t> done{0};
    } c;
    pool.parallelForChunks(0, parties, [&](size_t t, size_t) {
        timeline::ScopedHostSpan span("symgs.levels", "worker");
        Value *own = links + t * scratch;
        for (size_t s; (s = c.next.fetch_add(1, std::memory_order_relaxed)) <
                       slices;) {
            const size_t l = s / parties, part = s % parties;
            waitAtLeast(c.done, l * parties);
            const size_t lo = S.levelBegin[l];
            const size_t n = S.levelBegin[l + 1] - lo;
            S.fns.sweep(S, b, diag, xw, own, S.sweepOrder.data(),
                        lo + n * part / parties,
                        lo + n * (part + 1) / parties);
            c.done.fetch_add(1, std::memory_order_release);
        }
    });
}

} // namespace replay
} // namespace alr
