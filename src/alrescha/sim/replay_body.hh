/**
 * @file
 * Width-agnostic replay kernel core (textual template, one inclusion
 * per ISA translation unit).  The including TU defines:
 *
 *   ALR_REPLAY_NS     -- a unique namespace (ODR isolation: every TU
 *                        compiles with different ISA flags, so nothing
 *                        here may collide across TUs)
 *   ALR_REPLAY_LANES  -- native vector lane count for Value (2 for
 *                        SSE2/NEON, 4 for AVX2, 8 for AVX-512), or 0
 *                        for the portable scalar instantiation that
 *                        uses no vector extensions at all
 *
 * and gets a makeTable() that fills a detail::KernelTable with fully
 * specialized entry points over ω ∈ {2, 4, 8} for SpMV, SpMM and the
 * SymGS sweep.  Every kernel writes a row record's dot to the output
 * row RowStore::rowIndex names.
 *
 * Bit-identity: every arm computes each row dot in the canonical
 * pairwise tree order (reduce.hh) -- products p are combined level by
 * level as p[i] = p[2i] + p[2i+1].  The vector arms realize the same
 * dependency DAG with even/odd shuffles:
 *
 *  - a row's ω products live in N = ω/C vectors of C = min(ω, lanes)
 *    lanes, in lane order;
 *  - combining vector pairs as evens(a,b) + odds(a,b) adds exactly
 *    the adjacent product pairs of one tree level (treeAcross);
 *  - within the last vector, evens(v) + odds(v) keeps combining
 *    adjacent partials until one lane remains (treeWithin);
 *  - the two-rows-at-once variant (pairDot) first reduces each row to
 *    one vector of partials, then interleaves the remaining levels of
 *    both rows in concatenated halves -- every add is still one
 *    canonical combine of a single row;
 *  - SpMM puts one right-hand side in each lane instead, so every
 *    vertical add is one combine of each lane's own tree (spmmLanes).
 *
 * Because each add maps 1:1 onto a canonical-tree combine, any lane
 * count yields bit-identical doubles to the scalar tree -- the ISA is
 * purely a wall-clock choice.  The TU must be compiled with
 * -ffp-contract=off (a fused multiply-add would round once where the
 * tree rounds twice).
 *
 * Full-width loads are safe and exact: operand chunks come from the
 * chunk-padded staging buffer (gather plan, tail zeroed) and value
 * records are ω-wide with zero-filled edge lanes, so pad products are
 * +0.0 and the tree over them matches the interpreter's (reduce.hh
 * signed-zero note).
 */

#if !defined(ALR_REPLAY_NS) || !defined(ALR_REPLAY_LANES)
#error "replay_body.hh needs ALR_REPLAY_NS and ALR_REPLAY_LANES defined"
#endif

#include <cstring>

#include "alrescha/sim/replay_isa.hh"
#include "alrescha/sim/schedule.hh"

namespace alr {
namespace replay {
namespace ALR_REPLAY_NS {
namespace {

constexpr int kLanes = ALR_REPLAY_LANES;

#if ALR_REPLAY_LANES > 0

// ---------------------------------------------------------------- //
// Vector machinery (GCC/Clang vector extensions).  Only widths up   //
// to kLanes are ever instantiated, so each TU stays within the      //
// vector size its ISA flags cover.                                  //
// ---------------------------------------------------------------- //

template <int W> struct VecOf
{
    typedef Value type __attribute__((vector_size(W * sizeof(Value))));
};
template <int W> using Vec = typename VecOf<W>::type;

template <typename V>
constexpr int kLanesOf = int(sizeof(V) / sizeof(Value));

template <int W>
inline Vec<W>
loadv(const Value *p)
{
    Vec<W> v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <int W>
inline void
storev(Value *p, Vec<W> v)
{
    std::memcpy(p, &v, sizeof v);
}

/** Even / odd lanes of one vector (half width). */
template <typename V>
inline Vec<kLanesOf<V> / 2>
evens(V a)
{
    if constexpr (kLanesOf<V> == 2)
        return __builtin_shufflevector(a, a, 0);
    else if constexpr (kLanesOf<V> == 4)
        return __builtin_shufflevector(a, a, 0, 2);
    else
        return __builtin_shufflevector(a, a, 0, 2, 4, 6);
}

template <typename V>
inline Vec<kLanesOf<V> / 2>
odds(V a)
{
    if constexpr (kLanesOf<V> == 2)
        return __builtin_shufflevector(a, a, 1);
    else if constexpr (kLanesOf<V> == 4)
        return __builtin_shufflevector(a, a, 1, 3);
    else
        return __builtin_shufflevector(a, a, 1, 3, 5, 7);
}

/** Even / odd lanes across a vector pair (same width). */
template <typename V>
inline V
evens2(V a, V b)
{
    if constexpr (kLanesOf<V> == 2)
        return __builtin_shufflevector(a, b, 0, 2);
    else if constexpr (kLanesOf<V> == 4)
        return __builtin_shufflevector(a, b, 0, 2, 4, 6);
    else
        return __builtin_shufflevector(a, b, 0, 2, 4, 6, 8, 10, 12, 14);
}

template <typename V>
inline V
odds2(V a, V b)
{
    if constexpr (kLanesOf<V> == 2)
        return __builtin_shufflevector(a, b, 1, 3);
    else if constexpr (kLanesOf<V> == 4)
        return __builtin_shufflevector(a, b, 1, 3, 5, 7);
    else
        return __builtin_shufflevector(a, b, 1, 3, 5, 7, 9, 11, 13, 15);
}

/** Canonical tree inside one vector of adjacent partials. */
template <typename V>
inline Value
treeWithin(V v)
{
    if constexpr (kLanesOf<V> == 2)
        return v[0] + v[1];
    else
        return treeWithin(evens(v) + odds(v));
}

/** Combine N product vectors down to one vector of partials (each
 *  step is one full tree level: adjacent pairs across the array). */
template <int N, typename V>
inline V
acrossToVec(const V *p)
{
    if constexpr (N == 1)
        return p[0];
    else {
        V q[N / 2];
        for (int j = 0; j < N / 2; ++j)
            q[j] = evens2(p[2 * j], p[2 * j + 1]) +
                   odds2(p[2 * j], p[2 * j + 1]);
        return acrossToVec<N / 2>(q);
    }
}

/** One row dot: N product vectors -> canonical tree scalar. */
template <int N, typename V>
inline Value
treeAcross(const V *p)
{
    return treeWithin(acrossToVec<N>(p));
}

/** Collapse a two-row partial vector (concatenated halves, one row
 *  per half) to {row0 dot, row1 dot}.  Halves stay independent: with
 *  half length >= 2 the even/odd lanes of the whole vector are the
 *  per-half even/odd lanes concatenated, and at length 1 the final
 *  combine adds each row's last partial pair. */
template <typename V>
inline Vec<2>
pairCollapse(V s)
{
    if constexpr (kLanesOf<V> == 2)
        return s;
    else
        return pairCollapse(evens(s) + odds(s));
}

/** Two rows at once: {dot(pu), dot(pw)}, every add canonical. */
template <int N, typename V>
inline Vec<2>
pairDot(const V *pu, const V *pw)
{
    V u = acrossToVec<N>(pu);
    V w = acrossToVec<N>(pw);
    return pairCollapse(evens2(u, w) + odds2(u, w));
}

/**
 * All row dots of store path @p path at compile-time ω, two rows per
 * iteration (fills the shuffle ports; the pair epilogue shares work
 * between the rows).  The operand chunk loads once into registers for
 * the whole path.  sink(rr, dot) receives rows in record order.
 */
template <Index Omega, typename Sink>
inline void
pathRows(const RowStore &R, size_t path, const Value *x, Sink &&sink)
{
    constexpr int C = kLanes < int(Omega) ? kLanes : int(Omega);
    constexpr int N = int(Omega) / C;
    const Value *vals = R.values.data();
    Vec<C> xv[N];
    for (int j = 0; j < N; ++j)
        xv[j] = loadv<C>(x + j * C);
    size_t rr = R.rowBegin[path];
    const size_t re = R.rowBegin[path + 1];
    for (; rr + 2 <= re; rr += 2) {
        const Value *v = vals + rr * size_t(Omega);
        Vec<C> pu[N], pw[N];
        for (int j = 0; j < N; ++j)
            pu[j] = loadv<C>(v + j * C) * xv[j];
        for (int j = 0; j < N; ++j)
            pw[j] = loadv<C>(v + size_t(Omega) + j * C) * xv[j];
        Vec<2> d = pairDot<N>(pu, pw);
        sink(rr, d[0]);
        sink(rr + 1, d[1]);
    }
    if (rr < re) {
        const Value *v = vals + rr * size_t(Omega);
        Vec<C> p[N];
        for (int j = 0; j < N; ++j)
            p[j] = loadv<C>(v + j * C) * xv[j];
        sink(rr, treeAcross<N>(p));
    }
}

#else // ALR_REPLAY_LANES == 0

// ---------------------------------------------------------------- //
// Portable scalar instantiation: plain C++, no vector extensions.  //
// Same canonical tree, fully unrolled at compile-time ω.           //
// ---------------------------------------------------------------- //

template <Index W>
inline Value
dotScalar(const Value *v, const Value *x)
{
    Value p[W];
    for (Index l = 0; l < W; ++l)
        p[l] = v[l] * x[l];
    for (Index w = W; w > 1; w >>= 1)
        for (Index i = 0; i < w / 2; ++i)
            p[i] = p[2 * i] + p[2 * i + 1];
    return p[0];
}

template <Index Omega, typename Sink>
inline void
pathRows(const RowStore &R, size_t path, const Value *x, Sink &&sink)
{
    const Value *vals = R.values.data();
    for (size_t rr = R.rowBegin[path]; rr < R.rowBegin[path + 1]; ++rr)
        sink(rr, dotScalar<Omega>(vals + rr * size_t(Omega), x));
}

#endif // ALR_REPLAY_LANES

// ---------------------------------------------------------------- //
// Specialized drivers.                                             //
// ---------------------------------------------------------------- //

template <Index Omega>
void
spmvPathsT(const ExecSchedule &S, const Value *xpad, Value *y,
           size_t pBegin, size_t pEnd)
{
    const RowStore &R = *S.rows;
    const Index *rowIndex = R.rowIndex.data();
    for (size_t i = pBegin; i < pEnd; ++i)
        pathRows<Omega>(R, i, xpad + S.xOff[i],
                        [y, rowIndex](size_t rr, Value d) {
                            y[rowIndex[rr]] += d;
                        });
}

/**
 * SpMM with the right-hand sides across the vector lanes: operands and
 * results are interleaved (replay_fns.hh), so lane g of p[l] holds
 * right-hand side j + g's product in row lane l, and the canonical
 * tree combines whole vectors -- one vertical add per tree combine of
 * each right-hand side, no shuffles.  G lanes at a time (G = 1 is the
 * scalar arm); lanes past k compute on staged zeros into result slots
 * the engine never reads.
 */
template <int G, Index Omega>
void
spmmLanes(const ExecSchedule &S, const Value *xt, Value *yt, size_t k,
          size_t pBegin, size_t pEnd)
{
    const size_t stride = spmmStride(k);
    const RowStore &R = *S.rows;
    const Index *rowIndex = R.rowIndex.data();
    const Value *vals = R.values.data();
    for (size_t i = pBegin; i < pEnd; ++i) {
        const Value *x = xt + size_t(S.xOff[i]) * stride;
        for (size_t rr = R.rowBegin[i]; rr < R.rowBegin[i + 1]; ++rr) {
            const Value *v = vals + rr * size_t(Omega);
            Value *y = yt + size_t(rowIndex[rr]) * stride;
            for (size_t j = 0; j < k; j += G) {
#if ALR_REPLAY_LANES > 0
                Vec<G> p[Omega];
                for (Index l = 0; l < Omega; ++l)
                    p[l] = v[l] * loadv<G>(x + l * stride + j);
#else
                Value p[Omega];
                for (Index l = 0; l < Omega; ++l)
                    p[l] = v[l] * x[l * stride + j];
#endif
                for (Index w = Omega; w > 1; w >>= 1)
                    for (Index q = 0; q < w / 2; ++q)
                        p[q] = p[2 * q] + p[2 * q + 1];
#if ALR_REPLAY_LANES > 0
                storev<G>(y + j, loadv<G>(y + j) + p[0]);
#else
                y[j] += p[0];
#endif
            }
        }
    }
}

/** SpMM entry: the narrowest lane group that holds the k right-hand
 *  sides, up to the ISA's width (two groups of 4 on AVX2, say). */
template <Index Omega>
void
spmmPathsT(const ExecSchedule &S, const Value *xt, Value *yt, size_t k,
           size_t pBegin, size_t pEnd)
{
#if ALR_REPLAY_LANES > 0
    if constexpr (kLanes >= 8) {
        if (k > 4)
            return spmmLanes<8, Omega>(S, xt, yt, k, pBegin, pEnd);
    }
    if constexpr (kLanes >= 4) {
        if (k > 2)
            return spmmLanes<4, Omega>(S, xt, yt, k, pBegin, pEnd);
    }
    spmmLanes<2, Omega>(S, xt, yt, k, pBegin, pEnd);
#else
    spmmLanes<1, Omega>(S, xt, yt, k, pBegin, pEnd);
#endif
}

/**
 * The D-SymGS chain of store path @p j at compile-time ω, its records
 * first to last, or last to first when @p reverse (a backward sweep):
 * each row's dot with the block row's chunk updates xw[r] = (b[r] -
 * (acc[lr] + dot)) / diag[r].  The record holds the diagonal, so its
 * lane is masked to exactly +0.0, as the interpreter's zeroed value and
 * operand give (v * 0.0 would be -0.0 for a negative diagonal).  Scalar
 * in every ISA table: the chain is a latency-bound recurrence, and
 * wider lanes measured no faster.
 */
template <Index Omega>
inline void
chainRows(const RowStore &R, size_t j, bool reverse, Index r0,
          const Value *acc, const Value *b, const Value *diag, Value *xw)
{
    const Value *vals = R.values.data();
    const Value *xc = xw + r0;
    const size_t first = R.rowBegin[j], steps = R.rowBegin[j + 1] - first;
    for (size_t n = 0; n < steps; ++n) {
        const size_t rr = reverse ? first + steps - 1 - n : first + n;
        const Index r = R.rowIndex[rr];
        const Index lr = r - r0;
        const Value *v = vals + rr * size_t(Omega);
        Value p[Omega];
        for (Index l = 0; l < Omega; ++l)
            p[l] = l == lr ? 0.0 : v[l] * xc[l];
        for (Index w = Omega; w > 1; w >>= 1)
            for (Index q = 0; q < w / 2; ++q)
                p[q] = p[2 * q] + p[2 * q + 1];
        xw[r] = (b[r] - (acc[lr] + p[0])) / diag[r];
    }
}

/**
 * A range of a SymGS sweep's group order (replay::SweepFn).  Each
 * block-row group is its GEMVs and then its chain, store paths
 * groupFirst(g) onwards.  The GEMVs run in path order, each writing its
 * row dots into its own zero-filled slot of @p links (a push); the
 * slots then add newest first onto +0.0 (the pop-accumulate) -- the
 * link stack's exact arithmetic -- and the chain runs on the sum,
 * backwards in a backward sweep.  Path order streams each block row's
 * records forwards, which measured faster than adding each dot into
 * the sum as the GEMVs run newest first.
 */
template <Index Omega>
void
sweepT(const ExecSchedule &S, const Value *b, const Value *diag, Value *xw,
       Value *links, const size_t *order, size_t begin, size_t end)
{
    const RowStore &R = *S.rows;
    const Index *rowIndex = R.rowIndex.data();
    const bool reverse = S.reversed();
    for (size_t k = begin; k < end; ++k) {
        const size_t g = order ? order[k] : k;
        const size_t first = S.groupBegin[g];
        const size_t gemvs = S.groupBegin[g + 1] - 1 - first;
        const size_t j0 = S.groupFirst(g);
        const Index r0 = S.blockRow[first] * Omega;
        for (size_t e = 0; e < gemvs; ++e) {
            Value *slot = links + e * Omega;
            for (Index l = 0; l < Omega; ++l)
                slot[l] = 0.0;
            pathRows<Omega>(R, j0 + e, xw + S.xOff[first + e],
                            [slot, r0, rowIndex](size_t rr, Value d) {
                                slot[rowIndex[rr] - r0] = d;
                            });
        }
        Value acc[Omega] = {};
        for (size_t e = gemvs; e-- > 0;)
            for (Index l = 0; l < Omega; ++l)
                acc[l] += links[e * Omega + l];
        chainRows<Omega>(R, j0 + gemvs, reverse, r0, acc, b, diag, xw);
    }
}

template <Index Omega>
inline void
fillOmega(detail::KernelTable &t, int oi)
{
    t.spmv[oi] = &spmvPathsT<Omega>;
    t.spmm[oi] = &spmmPathsT<Omega>;
    t.sweep[oi] = &sweepT<Omega>;
}

inline detail::KernelTable
makeTable(const char *name)
{
    detail::KernelTable t;
    t.name = name;
    fillOmega<2>(t, 0);
    fillOmega<4>(t, 1);
    fillOmega<8>(t, 2);
    return t;
}

} // namespace
} // namespace ALR_REPLAY_NS
} // namespace replay
} // namespace alr
