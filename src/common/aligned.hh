/**
 * @file
 * Minimal over-aligned allocator so hot value streams can live on
 * cache-line (and SIMD-load) boundaries while still being ordinary
 * std::vectors to the rest of the code.
 */

#ifndef ALR_COMMON_ALIGNED_HH
#define ALR_COMMON_ALIGNED_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

namespace alr {

/**
 * std::allocator drop-in that over-aligns every allocation to @p Align
 * bytes (a power of two, at least alignof(T)).  Two instances compare
 * equal regardless of T, like std::allocator.
 */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    static_assert((Align & (Align - 1)) == 0, "alignment must be pow2");
    static_assert(Align >= alignof(T), "alignment below natural");

    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *allocate(std::size_t n)
    {
        if (n == 0)
            return nullptr;
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    /**
     * Value-less construction default-initializes: resize(n) leaves
     * the new elements of a trivial type uninitialized, like new T[n],
     * instead of zeroing them on the calling thread.  Every user writes
     * what it grows, and the big arrays (the encoded stream, the
     * compiled schedule's values) are written in parallel, so their
     * pages are first touched by the threads that fill them.
     * resize(n, v), assign and copies still initialize: with arguments
     * std::allocator_traits falls back to placement new.
     */
    template <typename U>
    void construct(U *p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U, Align> &) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const AlignedAllocator<U, Align> &) const noexcept
    {
        return false;
    }
};

/** A vector whose buffer starts on a 64-byte boundary. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

} // namespace alr

#endif // ALR_COMMON_ALIGNED_HH
