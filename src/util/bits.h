/**
 * @file
 * Small bit-manipulation and alignment helpers used throughout the heap
 * and object model. All objects in the managed heap are word aligned,
 * which is what frees the two low-order reference bits the leak-pruning
 * algorithm uses (stale-check bit and poison bit).
 */

#ifndef LP_UTIL_BITS_H
#define LP_UTIL_BITS_H

#include <cstddef>
#include <cstdint>

namespace lp {

/** Machine word; references in the managed heap are stored as words. */
using word_t = std::uintptr_t;

/** Word size in bytes; the heap's minimum alignment. */
constexpr std::size_t kWordBytes = sizeof(word_t);

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Round @p v up to the next multiple of power-of-two @p align. */
constexpr std::size_t
roundUp(std::size_t v, std::size_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of power-of-two @p align. */
constexpr std::size_t
roundDown(std::size_t v, std::size_t align)
{
    return v & ~(align - 1);
}

/** True iff @p v is a multiple of power-of-two @p align. */
constexpr bool
isAligned(word_t v, std::size_t align)
{
    return (v & (align - 1)) == 0;
}

/** Floor of log2 for nonzero @p v. */
constexpr unsigned
log2Floor(std::size_t v)
{
    unsigned r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/** Ceiling of log2 for nonzero @p v. */
constexpr unsigned
log2Ceil(std::size_t v)
{
    return log2Floor(v) + (isPowerOfTwo(v) ? 0 : 1);
}

} // namespace lp

#endif // LP_UTIL_BITS_H
