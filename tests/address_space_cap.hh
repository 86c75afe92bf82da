/**
 * @file
 * Test helper: cap the process's address space for one scope. A fuzz
 * loop over untrusted bytes runs inside the cap, so an allocation
 * sized from a corrupt length field fails with std::bad_alloc on every
 * host, instead of failing or succeeding according to the host's
 * memory-overcommit policy.
 */

#ifndef S64V_TESTS_ADDRESS_SPACE_CAP_HH
#define S64V_TESTS_ADDRESS_SPACE_CAP_HH

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>

namespace s64v::testutil
{

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kShadowMemorySanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kShadowMemorySanitizer = true;
#else
inline constexpr bool kShadowMemorySanitizer = false;
#endif
#else
inline constexpr bool kShadowMemorySanitizer = false;
#endif

/**
 * Lowers the soft RLIMIT_AS to the current virtual size plus
 * @p headroom bytes, and restores the previous limit when it goes out
 * of scope. Does nothing under ASan or TSan, which reserve terabytes
 * of shadow address space, or when the existing limit is already at
 * least as tight.
 */
class ScopedAddressSpaceCap
{
  public:
    explicit ScopedAddressSpaceCap(std::uint64_t headroom = 1ull << 30)
    {
        if (kShadowMemorySanitizer || ::getrlimit(RLIMIT_AS, &saved_) != 0)
            return;
        const std::uint64_t vsize = virtualSize();
        if (vsize == 0)
            return;
        const rlim_t cap = static_cast<rlim_t>(vsize + headroom);
        if (saved_.rlim_cur != RLIM_INFINITY && saved_.rlim_cur <= cap)
            return;
        if (saved_.rlim_max != RLIM_INFINITY && saved_.rlim_max < cap)
            return;
        rlimit lowered = saved_;
        lowered.rlim_cur = cap;
        active_ = ::setrlimit(RLIMIT_AS, &lowered) == 0;
    }

    ~ScopedAddressSpaceCap()
    {
        if (active_)
            ::setrlimit(RLIMIT_AS, &saved_);
    }

    ScopedAddressSpaceCap(const ScopedAddressSpaceCap &) = delete;
    ScopedAddressSpaceCap &
    operator=(const ScopedAddressSpaceCap &) = delete;

    /** Whether this scope lowered the limit. */
    bool active() const { return active_; }

  private:
    /** Current virtual size in bytes (0 if unknown). */
    static std::uint64_t
    virtualSize()
    {
        // The first field of /proc/self/statm is the size in pages.
        std::ifstream statm("/proc/self/statm");
        std::uint64_t pages = 0;
        if (!(statm >> pages))
            return 0;
        const long page = ::sysconf(_SC_PAGESIZE);
        return page > 0 ? pages * static_cast<std::uint64_t>(page) : 0;
    }

    rlimit saved_{};
    bool active_ = false;
};

} // namespace s64v::testutil

#endif // S64V_TESTS_ADDRESS_SPACE_CAP_HH
