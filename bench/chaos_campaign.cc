/**
 * @file
 * Chaos campaign harness — "validate your build" from the command
 * line:
 *
 *   bench/chaos_campaign --seed=7 --points=200
 *   bench/chaos_campaign --minutes=5
 *   bench/chaos_campaign --invariants=ckpt-replay,storm
 *   bench/chaos_campaign --seed=7 --replay=42 --invariants=cache-mono
 *
 * Seeded-random valid configurations and mutated workloads are run
 * through the model and checked against the metamorphic invariants
 * (src/chaos/invariants.hh) plus fault-injection storms; violations
 * are auto-shrunk to minimal reproducers and triaged into
 * chaos_report.json, each with the replay command line printed above.
 * Exit status: 0 when the campaign is clean, 2 when any invariant was
 * violated (so CI can gate on it), 1 on a usage error.
 *
 * --seed= is the campaign seed: one number keys the fuzzer, every
 * synthesized trace and the fault storms. It is the only run flag the
 * campaign takes; the others (--threads=, --journal=, --resume=, ...)
 * are parsed and ignored, so no sweep a campaign runs inherits them.
 * An argument that is neither a run flag nor one of the options below
 * is fatal.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/campaign.hh"
#include "chaos/invariants.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "obs/run_obs.hh"

using namespace s64v;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --seed=N          campaign seed (default 1)\n"
        "  --points=N        points to run (default 50; 0 = only\n"
        "                    bounded by --minutes)\n"
        "  --minutes=M       wall-clock budget (fractional ok)\n"
        "  --invariants=a,b  subset of invariants (default all)\n"
        "  --report=PATH     report file (default chaos_report.json)\n"
        "  --replay=I        re-run point I only (from a report's\n"
        "                    replay command)\n"
        "  --list-invariants print the invariant catalogue and exit\n",
        argv0);
}

bool
parseArg(const std::string &arg, const char *name, const char **value)
{
    const std::size_t n = std::strlen(name);
    if (arg.compare(0, n, name) != 0)
        return false;
    *value = arg.c_str() + n;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> rest;
    const obs::ObsOptions run = obs::parseObsArgs(argc, argv, &rest);

    chaos::CampaignOptions opts;
    if (run.seed != obs::ObsOptions::kUnset)
        opts.seed = run.seed;

    for (const std::string &arg : rest) {
        const char *v = nullptr;
        if (parseArg(arg, "--points=", &v)) {
            opts.points =
                static_cast<std::size_t>(parseU64(v, "--points"));
        } else if (parseArg(arg, "--minutes=", &v)) {
            opts.minutes = parseDouble(v, "--minutes");
        } else if (parseArg(arg, "--invariants=", &v)) {
            opts.invariants = v;
        } else if (parseArg(arg, "--report=", &v)) {
            opts.reportPath = v;
        } else if (parseArg(arg, "--replay=", &v)) {
            opts.replay = true;
            opts.replayIndex =
                static_cast<std::size_t>(parseU64(v, "--replay"));
        } else if (arg == "--list-invariants") {
            for (const chaos::Invariant &inv :
                 chaos::invariantCatalog())
                std::printf("%-16s %s\n", inv.name.c_str(),
                            inv.description.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            fatal("unknown argument '%s' (see --help)", arg.c_str());
        }
    }

    // selectInvariants fatal()s on unknown names before any work.
    (void)chaos::selectInvariants(opts.invariants);

    std::printf("chaos campaign: seed %llu, %s\n",
                static_cast<unsigned long long>(opts.seed),
                opts.replay
                    ? ("replaying point " +
                       std::to_string(opts.replayIndex))
                          .c_str()
                    : (std::to_string(opts.points) + " point(s)" +
                       (opts.minutes > 0.0
                            ? ", " + std::to_string(opts.minutes) +
                                " minute cap"
                            : std::string()))
                          .c_str());

    const chaos::CampaignSummary summary =
        chaos::runChaosCampaign(opts);

    if (summary.failures.empty()) {
        std::printf("campaign clean: %zu point(s), %zu check(s)\n",
                    summary.pointsRun, summary.checksRun);
        return 0;
    }
    std::printf("campaign found %zu distinct failure(s) (%zu "
                "violation(s)):\n",
                summary.failures.size(), summary.violations);
    chaos::ChaosTriage replayHelper(opts.seed);
    for (const chaos::ChaosFailure &f : summary.failures) {
        std::printf("  [%s] %s\n    x%zu, first at point %zu; "
                    "shrunk: %s\n    replay: %s\n",
                    f.invariant.c_str(), f.detail.c_str(),
                    f.occurrences, f.firstPoint,
                    f.shrunk.label().c_str(),
                    replayHelper.replayCommand(f).c_str());
    }
    if (!opts.reportPath.empty())
        std::printf("report written to %s\n", opts.reportPath.c_str());
    return 2;
}
