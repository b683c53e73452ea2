/**
 * @file
 * Content hashing for cache keys that must survive process restarts.
 *
 * The in-process schedule cache keys on monotonic generation counters,
 * which are meaningless across runs; the persisted cache keys on a
 * 64-bit digest of each object's live arrays instead.  WordHasher is
 * that digest: an xxh64-style hash over a stream of 64-bit words.
 *
 * - Callers feed values, not memory: every field is widened to one
 *   word and every array is length-prefixed, so struct padding never
 *   enters the digest and two objects hash equal iff their fields do.
 *   Doubles enter by bit pattern (-0.0 and 0.0 differ, like the
 *   serialized bytes).
 * - Bulk arrays of 8-byte elements hash four words per step on four
 *   independent lanes, so a stream of hundreds of MiB costs about one
 *   memory pass rather than one dependent multiply chain per byte.
 * - Each round is multiply-rotate-multiply and the digest ends in an
 *   avalanche, so a flipped bit anywhere -- the sign bit of a double
 *   included -- spreads over the whole state.  A plain
 *   `state ^= word; state *= prime` round never moves a change in the
 *   top bit down: two negated payload values would cancel and give
 *   two different matrices the same key.
 */

#ifndef ALR_COMMON_HASH_HH
#define ALR_COMMON_HASH_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace alr::hash {

namespace detail {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t
mixRound(uint64_t acc, uint64_t word)
{
    acc += word * kPrime2;
    acc = std::rotl(acc, 31);
    return acc * kPrime1;
}

inline uint64_t
mergeLane(uint64_t h, uint64_t lane)
{
    h ^= mixRound(0, lane);
    return h * kPrime1 + kPrime4;
}

inline uint64_t
load64(const unsigned char *p)
{
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

} // namespace detail

/** Streaming xxh64-style hash over 64-bit words (see the file comment). */
class WordHasher
{
  public:
    /** Fold one integer, enum, bool or double field, widened to one
     *  word (a double by its bit pattern). */
    template <typename T>
    void field(T v)
    {
        if constexpr (std::is_enum_v<T>) {
            word(uint64_t(std::underlying_type_t<T>(v)));
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == 8, "hash doubles, not floats");
            word(std::bit_cast<uint64_t>(v));
        } else {
            static_assert(std::is_integral_v<T>, "not a field type");
            word(uint64_t(v));
        }
    }

    /** Fold the length of @p v, then every element as a field. */
    template <typename T, typename Alloc>
    void array(const std::vector<T, Alloc> &v)
    {
        field(uint64_t(v.size()));
        if constexpr (sizeof(T) == 8 && std::is_arithmetic_v<T>)
            words(reinterpret_cast<const unsigned char *>(v.data()),
                  v.size());
        else
            for (const T &x : v)
                field(x);
    }

    /**
     * Fold a byte buffer: its whole 8-byte words in host byte order,
     * the zero-padded tail, then the byte length.  For checksums of
     * bytes that never leave the host's byte order.
     */
    void bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        size_t whole = len / 8;
        words(p, whole);
        uint64_t tail = 0;
        if (len > whole * 8)
            std::memcpy(&tail, p + whole * 8, len - whole * 8);
        word(tail);
        word(uint64_t(len));
    }

    /** Digest of everything folded so far (folding may continue). */
    uint64_t digest() const
    {
        using namespace detail;
        uint64_t h;
        if (_words >= 4) {
            h = std::rotl(_lane[0], 1) + std::rotl(_lane[1], 7) +
                std::rotl(_lane[2], 12) + std::rotl(_lane[3], 18);
            for (uint64_t lane : _lane)
                h = mergeLane(h, lane);
        } else {
            h = kPrime5;
        }
        h += _words * 8;
        for (size_t k = 0; k < _npending; ++k) {
            h ^= mixRound(0, _pending[k]);
            h = std::rotl(h, 27) * kPrime1 + kPrime4;
        }
        h ^= h >> 33;
        h *= kPrime2;
        h ^= h >> 29;
        h *= kPrime3;
        h ^= h >> 32;
        return h;
    }

  private:
    /** Fold one 64-bit word: queue it, and run the lanes once four are
     *  queued. */
    void word(uint64_t w)
    {
        _pending[_npending++] = w;
        ++_words;
        if (_npending == 4) {
            for (int k = 0; k < 4; ++k)
                _lane[k] = detail::mixRound(_lane[k], _pending[k]);
            _npending = 0;
        }
    }

    /** Fold @p n words read from @p p: top up the pending stripe, run
     *  the whole stripes straight from memory, queue the tail. */
    void words(const unsigned char *p, size_t n)
    {
        size_t i = 0;
        for (; i < n && _npending != 0; ++i)
            word(detail::load64(p + 8 * i));
        uint64_t v0 = _lane[0], v1 = _lane[1], v2 = _lane[2],
                 v3 = _lane[3];
        size_t stripes = (n - i) / 4;
        for (size_t s = 0; s < stripes; ++s, i += 4) {
            const unsigned char *q = p + 8 * i;
            v0 = detail::mixRound(v0, detail::load64(q));
            v1 = detail::mixRound(v1, detail::load64(q + 8));
            v2 = detail::mixRound(v2, detail::load64(q + 16));
            v3 = detail::mixRound(v3, detail::load64(q + 24));
        }
        _lane[0] = v0;
        _lane[1] = v1;
        _lane[2] = v2;
        _lane[3] = v3;
        _words += 4 * stripes;
        for (; i < n; ++i)
            word(detail::load64(p + 8 * i));
    }

    uint64_t _lane[4] = {detail::kPrime1 + detail::kPrime2, detail::kPrime2,
                         0, 0 - detail::kPrime1};
    uint64_t _pending[4] = {0, 0, 0, 0};
    size_t _npending = 0;
    uint64_t _words = 0;
};

/** Digest of a byte buffer (WordHasher::bytes). */
inline uint64_t
ofBytes(const void *data, size_t len)
{
    WordHasher h;
    h.bytes(data, len);
    return h.digest();
}

} // namespace alr::hash

#endif // ALR_COMMON_HASH_HH
