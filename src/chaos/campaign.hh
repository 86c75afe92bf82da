/**
 * @file
 * The chaos campaign driver: the loop that ties the fuzzer,
 * invariants, shrinker, and triage together. One campaign iterates
 * seeded-random points (ConfigFuzzer::point(i) for i = 0, 1, ...)
 * until a point budget or a wall-clock budget runs out, evaluates the
 * selected invariants on each, auto-shrinks the first occurrence of
 * every distinct violation to a minimal reproducer, and maintains
 * chaos_report.json (schema "s64v-chaos-1") as it goes — the report
 * is rewritten after every new finding, so a killed campaign still
 * leaves its findings on disk.
 *
 * Replay mode runs exactly one point index instead of the loop: the
 * `replay` field every failure carries points back here.
 *
 * Single-threaded by design — the storm invariant forks, and the
 * deterministic point order is what makes "--seed=S --replay=i"
 * meaningful. Throughput comes from the points being tiny (a few
 * thousand instructions), not from workers.
 */

#ifndef S64V_CHAOS_CAMPAIGN_HH
#define S64V_CHAOS_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/triage.hh"

namespace s64v::chaos
{

struct CampaignOptions
{
    /** Campaign seed; keys every point (bench maps --seed= here). */
    std::uint64_t seed = 1;
    /** Points to run; 0 = unlimited (bounded by `minutes` alone). */
    std::size_t points = 50;
    /** Wall-clock budget in minutes; 0 = none. When both budgets are
     *  zero the driver falls back to 50 points. */
    double minutes = 0.0;
    /** Invariant selection ("" or "all" = every invariant). */
    std::string invariants;
    /** Report path ("" disables the report file). */
    std::string reportPath = "chaos_report.json";
    /** Replay exactly this point index instead of looping. @{ */
    bool replay = false;
    std::size_t replayIndex = 0;
    /** @} */
};

/** What a campaign did and found. */
struct CampaignSummary
{
    std::size_t pointsRun = 0;
    /** Invariant evaluations, shrinking included. */
    std::size_t checksRun = 0;
    /** Violations recorded, duplicates included. */
    std::size_t violations = 0;
    /** Deduplicated failure buckets, with minimized reproducers. */
    std::vector<ChaosFailure> failures;
    /** True when the wall-clock budget ended the campaign. */
    bool timedOut = false;
};

/** Run one campaign (see file comment). */
CampaignSummary runChaosCampaign(const CampaignOptions &opts);

} // namespace s64v::chaos

#endif // S64V_CHAOS_CAMPAIGN_HH
