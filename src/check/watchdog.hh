/**
 * @file
 * Commit-progress watchdog. The cycle loop can only wedge when no
 * core ever commits again — a bug in the pipeline, a lost bus grant,
 * a coherence deadlock. Instead of spinning to the 400M-cycle cap
 * (hours of host time in CI), the watchdog fires after a configurable
 * number of cycles without a single committed instruction and aborts
 * the run with a diagnosis.
 *
 * Legitimate long-latency stalls are distinguished from true deadlock
 * through an event probe: when the memory system still has an
 * in-flight fill scheduled to land within one watchdog period, the
 * deadline is extended to that event instead of firing. An event that
 * never completes (or completes absurdly far in the future, e.g. a
 * lost grant) does not defer the watchdog.
 *
 * The watchdog needs no per-cycle attention: its owner checks it at
 * deadline(), passing the commit total and the cycle of the latest
 * commit, and additionally on every visited cycle while
 * awaitingEvent() holds.
 */

#ifndef S64V_CHECK_WATCHDOG_HH
#define S64V_CHECK_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hh"

namespace s64v::check
{

/** Default no-commit threshold in cycles. */
constexpr std::uint64_t kDefaultWatchdogCycles = 100'000;

/** Deadlock detector over the global commit count. */
class Watchdog
{
  public:
    /**
     * @param threshold fire after this many cycles without any core
     *        committing an instruction. Must be nonzero.
     */
    explicit Watchdog(std::uint64_t threshold);

    /**
     * Optional probe consulted before firing: given the current
     * cycle, return the earliest cycle a pending event (typically an
     * in-flight cache fill) will complete, or kCycleNever when no
     * event is outstanding. Events due within one threshold defer the
     * watchdog until they land.
     */
    void setEventProbe(std::function<Cycle(Cycle)> probe)
    {
        probe_ = std::move(probe);
    }

    /**
     * Check for progress at @p cycle. @p committed is the total
     * number of instructions committed so far (all cores) and
     * @p last_commit the cycle progress was last made at: the latest
     * commit, or the run's first cycle when that is later (a restored
     * run has no commit history of its own). A caller that checks
     * every cycle may pass @p cycle. @return true exactly once, on
     * the check that fires.
     */
    bool check(Cycle cycle, std::uint64_t committed, Cycle last_commit);

    bool fired() const { return fired_; }
    Cycle firedCycle() const { return firedCycle_; }
    std::uint64_t threshold() const { return threshold_; }
    /**
     * Times a pending in-flight event moved the deadline: the same
     * on every engine, since re-probing an event already awaited
     * moves nothing.
     */
    std::uint64_t graceExtensions() const { return graceExtensions_; }

    /**
     * Cycle at which the watchdog would fire absent further progress
     * — check() must run there (a pending event can still defer it
     * then).
     */
    Cycle deadline() const { return lastProgress_ + threshold_; }

    /**
     * True while a grace extension still waits for its event, i.e.
     * the deadline was pushed to an event after @p cycle. Until the
     * event lands every check re-probes, which can move the deadline
     * again, so check() must also run on every visited cycle.
     */
    bool awaitingEvent(Cycle cycle) const
    {
        return lastProgress_ > cycle;
    }

    /** One-line human-readable account of the firing state. */
    std::string diagnosis() const;

  private:
    std::uint64_t threshold_;
    std::function<Cycle(Cycle)> probe_;
    Cycle lastProgress_ = 0;
    std::uint64_t lastCommitted_ = 0;
    std::uint64_t graceExtensions_ = 0;
    bool fired_ = false;
    Cycle firedCycle_ = 0;
};

} // namespace s64v::check

#endif // S64V_CHECK_WATCHDOG_HH
