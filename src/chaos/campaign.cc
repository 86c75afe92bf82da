#include "chaos/campaign.hh"

#include <chrono>

#include "chaos/config_fuzzer.hh"
#include "chaos/invariants.hh"
#include "chaos/shrink.hh"
#include "common/logging.hh"

namespace s64v::chaos
{

namespace
{

/**
 * Evaluate every selected invariant on @p p, feeding findings through
 * shrinking (at shrinkPoint's default budget) and triage. Returns the
 * number of invariant checks spent.
 */
std::size_t
evaluatePoint(const ChaosPoint &p,
              const std::vector<Invariant> &invariants,
              const CampaignOptions &opts, ChaosTriage &triage)
{
    std::size_t checks = 0;
    for (const Invariant &inv : invariants) {
        ++checks;
        const std::optional<Violation> v = inv.check(p);
        if (!v)
            continue;
        warn("chaos: %s violated by %s: %s", v->invariant.c_str(),
             p.label().c_str(), v->detail.c_str());
        ShrinkResult shrink;
        if (triage.known(*v)) {
            // Duplicate bucket: count it, skip the shrinking cost.
            shrink.point = p;
        } else {
            shrink = shrinkPoint(p, inv);
            checks += shrink.checksRun;
            if (shrink.reproduced) {
                inform("chaos: shrunk to %zu delta(s), %zu instrs "
                       "(%zu checks)",
                       shrink.point.activeCount(),
                       shrink.point.instrs, shrink.checksRun);
            } else {
                warn("chaos: violation did not reproduce under "
                     "re-check; reporting the raw point");
            }
        }
        if (triage.record(*v, shrink) && !opts.reportPath.empty()) {
            // New bucket: flush the report so a killed campaign still
            // leaves every finding on disk.
            triage.write(opts.reportPath, p.index + 1);
        }
    }
    return checks;
}

} // namespace

CampaignSummary
runChaosCampaign(const CampaignOptions &opts)
{
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    const auto deadline = start +
        std::chrono::milliseconds(
            static_cast<std::int64_t>(opts.minutes * 60'000.0));

    const std::vector<Invariant> invariants =
        selectInvariants(opts.invariants);
    ConfigFuzzer fuzzer(opts.seed);
    ChaosTriage triage(opts.seed);
    CampaignSummary summary;

    // Both budgets zero would loop forever; fall back to the default
    // point count.
    std::size_t maxPoints = opts.points;
    if (maxPoints == 0 && opts.minutes <= 0.0)
        maxPoints = 50;

    if (opts.replay) {
        const ChaosPoint p = fuzzer.point(opts.replayIndex);
        inform("chaos: replaying %s", p.label().c_str());
        summary.checksRun +=
            evaluatePoint(p, invariants, opts, triage);
        summary.pointsRun = 1;
    } else {
        for (std::size_t i = 0;
             maxPoints == 0 || i < maxPoints; ++i) {
            if (opts.minutes > 0.0 && clock::now() >= deadline) {
                summary.timedOut = true;
                break;
            }
            const ChaosPoint p = fuzzer.point(i);
            summary.checksRun +=
                evaluatePoint(p, invariants, opts, triage);
            ++summary.pointsRun;
        }
    }

    summary.violations = triage.totalViolations();
    summary.failures = triage.failures();
    if (!opts.reportPath.empty())
        triage.write(opts.reportPath, summary.pointsRun);

    const double secs =
        std::chrono::duration<double>(clock::now() - start).count();
    inform("chaos: %zu point(s), %zu check(s), %zu violation(s) in "
           "%zu distinct failure(s), %.1fs [seed %llu]",
           summary.pointsRun, summary.checksRun, summary.violations,
           summary.failures.size(), secs,
           static_cast<unsigned long long>(opts.seed));
    return summary;
}

} // namespace s64v::chaos
