/**
 * @file
 * Constrained configuration fuzzing for the chaos campaign. A
 * ChaosPoint is one seeded-random experiment: a workload pick with
 * trace mutations (seed, length, branch/dependency character), plus a
 * small set of named configuration deltas drawn from the model's
 * preset mutators (model/params.hh) and a few direct parameter edits.
 * Every delta the fuzzer can emit produces a *valid* machine — sizes
 * stay powers of two, degraded ways stay below the associativity —
 * so a campaign failure is always a model bug, never a fuzzer bug.
 *
 * Determinism contract: point(i) depends only on (campaign seed, i),
 * and so do its traces — no run option re-keys them. A violation
 * report therefore replays from two numbers, and the shrinker
 * minimizes by deactivating deltas (the `active` mask) and shortening
 * `instrs` without ever re-rolling the dice.
 */

#ifndef S64V_CHAOS_CONFIG_FUZZER_HH
#define S64V_CHAOS_CONFIG_FUZZER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/params.hh"
#include "trace/trace.hh"
#include "workload/profile.hh"

namespace s64v::chaos
{

/** One named, self-contained configuration mutation. */
struct ConfigDelta
{
    /** Stable human-readable id, e.g. "issue-width=2". */
    std::string name;
    std::function<MachineParams(MachineParams)> apply;
};

/** One fuzzed campaign point (see file comment). */
struct ChaosPoint
{
    std::uint64_t campaignSeed = 0;
    std::size_t index = 0;
    /** mixSeeds(campaignSeed, index); drives everything below. */
    std::uint64_t pointSeed = 0;

    std::string workload; ///< profile name (workloadByName).
    unsigned numCpus = 1;
    std::size_t instrs = 0; ///< trace records per CPU.

    std::vector<ConfigDelta> deltas;
    /** Parallel to deltas; the shrinker clears entries to minimize. */
    std::vector<std::uint8_t> active;

    /** Base machine with every active delta applied (and repaired). */
    MachineParams machine() const;

    /** Workload profile with this point's trace mutations applied. */
    WorkloadProfile profile() const;

    /**
     * One trace per CPU, @c instrs records each, synthesized from
     * profile() as it stands: every run an invariant compares
     * replays this instruction stream.
     */
    std::vector<std::shared_ptr<const InstrTrace>> traces() const;

    /** "chaos#<i> <workload> x<instrs> [<delta>+<delta>]". */
    std::string label() const;

    std::size_t activeCount() const;
    /** Names of the active deltas, in order. */
    std::vector<std::string> activeDeltaNames() const;
};

/** Deterministic point generator for one campaign seed. */
class ConfigFuzzer
{
  public:
    explicit ConfigFuzzer(std::uint64_t campaign_seed)
        : seed_(campaign_seed)
    {
    }

    /** The @p index-th point of this campaign (pure function). */
    ChaosPoint point(std::size_t index) const;

    std::uint64_t campaignSeed() const { return seed_; }

    /** Number of distinct delta kinds the fuzzer draws from. */
    static std::size_t deltaKinds();

  private:
    std::uint64_t seed_;
};

} // namespace s64v::chaos

#endif // S64V_CHAOS_CONFIG_FUZZER_HH
