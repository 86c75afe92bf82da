/**
 * @file
 * The deliberately seeded defect used to prove the chaos campaign can
 * actually catch bugs. A chaos engine that has never found anything
 * is indistinguishable from one that cannot find anything; this
 * module arms a small, deterministic stats-only defect (TimedCache
 * double-counts misses in caches of 8 MB and larger — see
 * mem/cache.cc) that breaks the cache-monotonicity metamorphic
 * invariant without perturbing timing, so the campaign must detect it
 * and the shrinker must reduce it to a minimal reproducer.
 *
 * The defect is off unless a caller arms it with setSeededBug(true),
 * as the in-process mutation tests of the default suite do.
 */

#ifndef S64V_CHAOS_SEEDED_BUG_HH
#define S64V_CHAOS_SEEDED_BUG_HH

namespace s64v::chaos
{

/** Whether the seeded defect is live (see file comment). */
bool seededBugArmed();

/** Arm or disarm the seeded defect. */
void setSeededBug(bool armed);

} // namespace s64v::chaos

#endif // S64V_CHAOS_SEEDED_BUG_HH
