/**
 * @file
 * Randomized fault-injection storms. For each chaos point the storm
 * picks a few fault kinds from the injection catalogue
 * (check/fault_inject.hh), forks a child per case, arms the fault at a
 * seeded-random position, runs a kind-appropriate scenario in the
 * child, and checks that the child dies (or survives) exactly the way
 * the documented exit-code contract says it must:
 *
 *   stall / lost-grant  watchdog abort (SIGABRT, crash report on
 *                       disk) — or a clean exit when the fault cycle
 *                       lies beyond the run.
 *   lost-inval          end-of-run coherence audit abort (SIGABRT) on
 *                       a 2-CPU TPC-C run — or clean when fewer
 *                       broadcasts occur or eviction repairs the
 *                       stale sharer.
 *   kill-point          abrupt death with exit 86 — or clean when the
 *                       cycle lies beyond the run.
 *
 * Any other outcome — a hang (the child is SIGKILLed after a
 * deadline), an unexpected exit status, a missing crash report after
 * an abort — is a Violation. Fork-based on purpose: the contract
 * under test is about *process death*, so it can only be observed
 * from outside the process. Damaged files are not a storm case: the
 * byte-level fuzz tests of the snapshot container refuse every
 * single-bit flip and truncation directly.
 */

#ifndef S64V_CHAOS_STORM_HH
#define S64V_CHAOS_STORM_HH

#include <cstddef>
#include <optional>

#include "chaos/invariants.hh"

namespace s64v::chaos
{

/** Fault cases one storm runs per chaos point. */
constexpr std::size_t kStormCasesPerPoint = 3;

/**
 * Run the fault-injection storm for @p p (see file comment). Forks;
 * call only from a single-threaded campaign process. @return the
 * first contract violation found, if any.
 */
std::optional<Violation> runFaultStorm(const ChaosPoint &p);

} // namespace s64v::chaos

#endif // S64V_CHAOS_STORM_HH
