/**
 * @file
 * Tiny binary (de)serialization helpers for the program-image format:
 * little-endian PODs and length-prefixed vectors.  All readers throw
 * std::runtime_error on truncated or corrupt input so callers can
 * surface fatal() with context.
 */

#ifndef ALR_COMMON_BINARY_IO_HH
#define ALR_COMMON_BINARY_IO_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace alr::bio {

template <typename T>
void
writePod(std::ostream &out, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    out.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    in.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!in)
        throw std::runtime_error("binary stream truncated");
    return v;
}

template <typename T, typename Alloc>
void
writeVec(std::ostream &out, const std::vector<T, Alloc> &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    writePod<uint64_t>(out, v.size());
    if (!v.empty()) {
        out.write(reinterpret_cast<const char *>(v.data()),
                  std::streamsize(v.size() * sizeof(T)));
    }
}

/**
 * Read a length-prefixed vector into @p v (any allocator -- the
 * aligned payload vectors deserialize without a bounce copy).
 */
/**
 * Bytes left to read in @p in, or UINT64_MAX when the stream cannot
 * tell (it does not seek).  Readers bound a length prefix by it before
 * they allocate, so a corrupt length is a truncation, not a huge
 * allocation.
 */
inline uint64_t
remaining(std::istream &in)
{
    const std::istream::pos_type here = in.tellg();
    if (here == std::istream::pos_type(-1))
        return UINT64_MAX;
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    if (end == std::istream::pos_type(-1) || !in)
        return UINT64_MAX;
    return end > here ? uint64_t(end - here) : 0;
}

template <typename T, typename Alloc>
void
readVecInto(std::istream &in, std::vector<T, Alloc> &v,
            uint64_t max_elems = uint64_t(1) << 32)
{
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = readPod<uint64_t>(in);
    if (n > max_elems)
        throw std::runtime_error("binary vector implausibly large");
    if (n > remaining(in) / sizeof(T))
        throw std::runtime_error("binary stream truncated");
    v.resize(static_cast<size_t>(n));
    if (n) {
        in.read(reinterpret_cast<char *>(v.data()),
                std::streamsize(n * sizeof(T)));
        if (!in)
            throw std::runtime_error("binary stream truncated");
    }
}

template <typename T>
std::vector<T>
readVec(std::istream &in, uint64_t max_elems = uint64_t(1) << 32)
{
    uint64_t n = readPod<uint64_t>(in);
    if (n > max_elems)
        throw std::runtime_error("binary vector implausibly large");
    if (n > remaining(in) / sizeof(T))
        throw std::runtime_error("binary stream truncated");
    auto v = std::vector<T>(static_cast<size_t>(n));
    if (n) {
        in.read(reinterpret_cast<char *>(v.data()),
                std::streamsize(n * sizeof(T)));
        if (!in)
            throw std::runtime_error("binary stream truncated");
    }
    return v;
}

} // namespace alr::bio

#endif // ALR_COMMON_BINARY_IO_HH
