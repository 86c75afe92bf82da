#include "check/watchdog.hh"

#include <algorithm>
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
    // A commit seen after a grace extension never pulls progress back
    // before the event granted: the deadline only moves forward.
    if (committed != lastCommitted_) {
        lastCommitted_ = committed;
        lastProgress_ = std::max(lastProgress_, last_commit);
    }
    if (cycle < deadline())
        return false;

    // No progress for a full period. A pending event due within one
    // more period means the machine is legitimately waiting (e.g. a
    // long queue of memory fills); push the deadline to the event.
    if (probe_) {
        const Cycle ev = probe_(cycle);
        if (ev != kCycleNever && ev > cycle &&
            ev - cycle <= threshold_) {
            lastProgress_ = ev;
            ++graceExtensions_;
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
