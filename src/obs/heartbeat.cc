#include "obs/heartbeat.hh"

#include <cstdio>

#include "common/logging.hh"

namespace s64v::obs
{

Heartbeat::Heartbeat(std::uint64_t period,
                     std::uint64_t expected_instrs)
    : period_(period), expectedInstrs_(expected_instrs),
      lastWall_(Clock::now())
{
    if (period_ == 0)
        fatal("heartbeat: period must be nonzero");
}

void
Heartbeat::beat(Cycle cycle, std::uint64_t instrs)
{
    const Clock::time_point now = Clock::now();
    const double dt =
        std::chrono::duration<double>(now - lastWall_).count();
    const std::uint64_t delta = instrs >= lastInstrs_
        ? instrs - lastInstrs_ : 0;
    const double kips = dt > 0.0
        ? static_cast<double>(delta) / dt / 1000.0 : 0.0;
    const double ipc = cycle
        ? static_cast<double>(instrs) / static_cast<double>(cycle)
        : 0.0;

    char line[256];
    int n = std::snprintf(
        line, sizeof(line),
        "heartbeat: cycle %llu, %llu instrs, ipc %.3f, %.1f KIPS",
        static_cast<unsigned long long>(cycle),
        static_cast<unsigned long long>(instrs), ipc, kips);
    if (expectedInstrs_ > instrs && kips > 0.0 &&
        n < static_cast<int>(sizeof(line))) {
        const double eta =
            static_cast<double>(expectedInstrs_ - instrs) /
            (kips * 1000.0);
        std::snprintf(line + n, sizeof(line) - n, ", eta %.1fs", eta);
    }
    inform("%s", line);

    lastWall_ = now;
    lastInstrs_ = instrs;
    ++beats_;
}

} // namespace s64v::obs
