/**
 * @file
 * Small bit-manipulation helpers used by caches, predictors, and the
 * address generators.
 */

#ifndef S64V_COMMON_BITUTIL_HH
#define S64V_COMMON_BITUTIL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

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

/**
 * A dense fixed-size bit set over 64-bit words, built for the
 * struct-of-arrays hot loops: per-cycle scans over LSQ slots
 * iterate only the set bits via countr_zero instead of branching on
 * every entry. Derived state only — never serialized; owners rebuild
 * their masks from the authoritative per-entry fields on checkpoint
 * restore.
 */
class DenseBits
{
  public:
    DenseBits() = default;
    explicit DenseBits(std::size_t n) { resize(n); }

    /** Resize to @p n bits, clearing every bit. */
    void resize(std::size_t n)
    {
        size_ = n;
        words_.assign((n + 63) / 64, 0);
    }

    std::size_t size() const { return size_; }

    void set(std::size_t i) { words_[i >> 6] |= bit(i); }
    void clear(std::size_t i) { words_[i >> 6] &= ~bit(i); }
    bool test(std::size_t i) const
    {
        return (words_[i >> 6] & bit(i)) != 0;
    }

    /** Clear every bit. */
    void reset()
    {
        for (std::uint64_t &w : words_)
            w = 0;
    }

    bool any() const
    {
        for (std::uint64_t w : words_)
            if (w)
                return true;
        return false;
    }

    std::size_t count() const
    {
        std::size_t n = 0;
        for (std::uint64_t w : words_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** Index of the lowest set bit, or -1 when none. */
    std::int64_t findFirst() const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            if (words_[wi]) {
                return static_cast<std::int64_t>(
                    wi * 64 +
                    static_cast<unsigned>(std::countr_zero(words_[wi])));
            }
        }
        return -1;
    }

    /** Index of the lowest clear bit below size(), or -1 when full. */
    std::int64_t findFirstZero() const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            const std::uint64_t inv = ~words_[wi];
            if (inv) {
                const std::size_t i =
                    wi * 64 +
                    static_cast<unsigned>(std::countr_zero(inv));
                return i < size_ ? static_cast<std::int64_t>(i) : -1;
            }
        }
        return -1;
    }

    /**
     * Invoke @p fn(index) for every set bit, ascending. @p fn may
     * return void, or bool where false stops the iteration early.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t bits = words_[wi];
            while (bits) {
                const std::size_t i =
                    wi * 64 +
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                if constexpr (std::is_same_v<
                                  decltype(fn(std::size_t{0})), bool>) {
                    if (!fn(i))
                        return;
                } else {
                    fn(i);
                }
            }
        }
    }

  private:
    static constexpr std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace s64v

#endif // S64V_COMMON_BITUTIL_HH
