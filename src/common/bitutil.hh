/**
 * @file
 * Small bit-manipulation helpers used by caches, predictors, and the
 * address generators.
 */

#ifndef S64V_COMMON_BITUTIL_HH
#define S64V_COMMON_BITUTIL_HH

#include <bit>
#include <cstdint>

#include "common/types.hh"

namespace s64v
{

/** @return true iff @p v is a (nonzero) power of two. */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** @return ceil(log2(v)); v must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Align @p a down to a multiple of power-of-two @p align. */
constexpr Addr
alignDown(Addr a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** Align @p a up to a multiple of power-of-two @p align. */
constexpr Addr
alignUp(Addr a, std::uint64_t align)
{
    return (a + align - 1) & ~(align - 1);
}

/** Mix the bits of a 64-bit value (splitmix64 finalizer). */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace s64v

#endif // S64V_COMMON_BITUTIL_HH
