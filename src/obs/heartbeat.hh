/**
 * @file
 * Run heartbeat: periodic progress lines (cycles, instructions, IPC,
 * host simulation speed in KIPS, ETA) so long batch runs are not
 * silent for minutes. The paper's model simulated ~7.8K instructions
 * per host second (§2.1) — multi-million-instruction runs need a
 * pulse.
 */

#ifndef S64V_OBS_HEARTBEAT_HH
#define S64V_OBS_HEARTBEAT_HH

#include <chrono>
#include <cstdint>

#include "common/types.hh"

namespace s64v::obs
{

/**
 * Emits one inform() line per beat. Attach to a System
 * (System::attachHeartbeat); the run loop calls beat() every period()
 * cycles.
 */
class Heartbeat
{
  public:
    /**
     * @param period cycles between beats (must be nonzero).
     * @param expected_instrs total instructions the run will commit
     *        (for the ETA estimate); 0 disables the ETA column.
     */
    explicit Heartbeat(std::uint64_t period,
                       std::uint64_t expected_instrs = 0);

    /** Report progress at @p cycle with @p instrs committed so far. */
    void beat(Cycle cycle, std::uint64_t instrs);

    std::uint64_t period() const { return period_; }
    std::uint64_t beats() const { return beats_; }

  private:
    using Clock = std::chrono::steady_clock;

    std::uint64_t period_;
    std::uint64_t expectedInstrs_;
    Clock::time_point lastWall_;
    std::uint64_t lastInstrs_ = 0;
    std::uint64_t beats_ = 0;
};

} // namespace s64v::obs

#endif // S64V_OBS_HEARTBEAT_HH
