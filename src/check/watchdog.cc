#include "check/watchdog.hh"

#include <cstdio>

#include "common/logging.hh"

namespace s64v::check
{

Watchdog::Watchdog(std::uint64_t threshold)
    : threshold_(threshold)
{
    if (threshold_ == 0)
        fatal("watchdog threshold must be nonzero (use "
              "SystemParams::watchdogCycles = 0 to disable)");
}

bool
Watchdog::check(Cycle cycle, std::uint64_t committed, Cycle last_commit)
{
    if (fired_)
        return false;
    if (committed != lastCommitted_) {
        lastCommitted_ = committed;
        lastProgress_ = last_commit;
        return false;
    }
    // While awaitingEvent(), the difference wraps: the check falls
    // through and re-probes.
    if (cycle - lastProgress_ < threshold_)
        return false;

    // No commit for a full period. A pending event due within one
    // more period means the machine is legitimately waiting (e.g. a
    // long queue of memory fills); push the deadline to the event.
    // Only a move counts as an extension: a re-probe that finds the
    // awaited event again changes nothing, so the count does not
    // depend on how many cycles the engine visits.
    if (probe_) {
        const Cycle ev = probe_(cycle);
        if (ev != kCycleNever && ev > cycle &&
            ev - cycle <= threshold_) {
            if (ev != lastProgress_) {
                lastProgress_ = ev;
                ++graceExtensions_;
            }
            return false;
        }
    }

    fired_ = true;
    firedCycle_ = cycle;
    return true;
}

std::string
Watchdog::diagnosis() const
{
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "no instruction committed for %llu cycles (last progress at "
        "cycle %llu, %llu instructions committed, %llu grace "
        "extensions)",
        static_cast<unsigned long long>(
            (fired_ ? firedCycle_ : lastProgress_) - lastProgress_),
        static_cast<unsigned long long>(lastProgress_),
        static_cast<unsigned long long>(lastCommitted_),
        static_cast<unsigned long long>(graceExtensions_));
    return buf;
}

} // namespace s64v::check
