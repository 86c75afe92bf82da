#include "chaos/seeded_bug.hh"

#include <atomic>

namespace s64v::chaos
{

namespace
{

std::atomic<bool> seededBug{false};

} // namespace

bool
seededBugArmed()
{
    // Relaxed: the gate sits on the cache-hit path, and arming is a
    // test-setup action, not something raced against live lookups.
    return seededBug.load(std::memory_order_relaxed);
}

void
setSeededBug(bool armed)
{
    seededBug.store(armed, std::memory_order_relaxed);
}

} // namespace s64v::chaos
