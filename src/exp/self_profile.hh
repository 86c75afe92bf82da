/**
 * @file
 * Simulator self-profiling: where does the cycle kernel's host time
 * go? A SelfProfiler attached to a CycleKernel samples 1-in-N cycles
 * and times each Clocked::tick() and the probe pass on those cycles,
 * aggregating wall time per component class. Per-run profiles merge
 * into a process-wide aggregate written as BENCH_selfprofile.json —
 * the measured starting point the ROADMAP's "10x the cycle kernel"
 * optimization item needs. Enable with --self-profile[=period] on any
 * bench or harness that parses obs flags.
 */

#ifndef S64V_EXP_SELF_PROFILE_HH
#define S64V_EXP_SELF_PROFILE_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/clocked.hh"

namespace s64v::exp
{

/** Accumulated samples and wall time of one component class. */
struct ProfileClassTotals
{
    std::uint64_t samples = 0; ///< timed tick (or probe-pass) count.
    std::uint64_t ns = 0;      ///< wall time inside those ticks.
};

/** Per-class totals keyed by Clocked::profileClass() ("probes" for
 *  the probe pass). */
using ProfileTotals = std::map<std::string, ProfileClassTotals>;

/** Default sampling period: time 1 cycle in 64. */
constexpr std::uint64_t kDefaultSelfProfilePeriod = 64;

/**
 * The standard TickProfiler: cheap modulo sampling, per-class
 * aggregation. One instance per run (it is not thread-safe); merge
 * finished runs into the process aggregate with mergeSelfProfile().
 */
class SelfProfiler : public TickProfiler
{
  public:
    explicit SelfProfiler(
        std::uint64_t period = kDefaultSelfProfilePeriod);

    bool sampleCycle(Cycle cycle) override
    {
        if (cycle % period_ != 0)
            return false;
        ++sampledCycles_;
        return true;
    }

    void recordTick(const Clocked &component,
                    std::uint64_t ns) override;
    void recordProbes(std::uint64_t ns) override;
    void recordElided(std::uint64_t cycles) override
    {
        elidedCycles_ += cycles;
    }

    std::uint64_t period() const { return period_; }
    std::uint64_t sampledCycles() const { return sampledCycles_; }
    /** Cycles the skip-ahead kernel jumped over instead of ticking. */
    std::uint64_t elidedCycles() const { return elidedCycles_; }
    const ProfileTotals &totals() const { return totals_; }

  private:
    std::uint64_t period_;
    std::uint64_t sampledCycles_ = 0;
    std::uint64_t elidedCycles_ = 0;
    ProfileTotals totals_;
};

/**
 * Process-wide aggregate, fed by every finished profiled run (sweep
 * workers merge concurrently; the aggregate is mutex-protected). @{
 */
void mergeSelfProfile(const SelfProfiler &profiler);
ProfileTotals selfProfileTotals();
std::uint64_t selfProfileSampledCycles();
std::uint64_t selfProfileRuns();
void resetSelfProfile();
/** @} */

/**
 * Render the aggregate as the BENCH_selfprofile.json document:
 * sample period, runs, per-class samples / sampled seconds / share
 * (shares sum to ~1.0), estimated total seconds (sampled * period),
 * instructions simulated so far (obs::benchInstructions) and the
 * implied KIPS over the estimated tick time.
 */
std::string renderSelfProfileJson();

/**
 * Write renderSelfProfileJson() to @p path, or, when @p path is
 * empty, to $S64V_BENCH_DIR (default ".") /BENCH_selfprofile.json.
 * No-op returning false when the aggregate has no samples.
 */
bool writeSelfProfileJson(const std::string &path = "");

} // namespace s64v::exp

#endif // S64V_EXP_SELF_PROFILE_HH
