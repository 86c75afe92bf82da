#include "obs/run_obs.hh"

#include <limits>

#include "check/fault_inject.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace s64v::obs
{

std::uint64_t
effectiveWorkloadSeed(std::uint64_t run_seed, std::uint64_t profile_seed)
{
    if (run_seed == ObsOptions::kUnset)
        return profile_seed;
    return mixSeeds(run_seed, profile_seed);
}

namespace
{

/** "--key=" or "key=" prefix match; @return the value or nullptr. */
const char *
matchFlag(const std::string &arg, const char *name)
{
    std::string token = arg;
    if (token.rfind("--", 0) == 0)
        token = token.substr(2);
    const std::string prefix = std::string(name) + "=";
    if (token.rfind(prefix, 0) == 0)
        return arg.c_str() + (arg.size() - token.size()) +
            prefix.size();
    return nullptr;
}

} // namespace

ObsOptions
parseObsArgs(int argc, const char *const *argv,
             std::vector<std::string> *rest)
{
    ObsOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (const char *v = matchFlag(arg, "stats-json"))
            opts.statsJsonPath = v;
        else if (const char *v = matchFlag(arg, "trace-out"))
            opts.traceOutPath = v;
        else if (const char *v = matchFlag(arg, "pipeview-out"))
            opts.pipeviewOutPath = v;
        else if (const char *v = matchFlag(arg, "sample-out"))
            opts.sampleOutPath = v;
        else if (const char *v = matchFlag(arg, "sample-period"))
            opts.samplePeriod = parseU64(v, "--sample-period");
        else if (const char *v = matchFlag(arg, "heartbeat"))
            opts.heartbeatPeriod = parseU64(v, "--heartbeat");
        else if (const char *v = matchFlag(arg, "crash-report"))
            opts.crashReportPath = v;
        else if (const char *v = matchFlag(arg, "watchdog"))
            opts.watchdogCycles = parseU64(v, "--watchdog");
        else if (const char *v = matchFlag(arg, "threads")) {
            const std::uint64_t n = parseU64(v, "--threads");
            if (n > std::numeric_limits<unsigned>::max())
                fatal("--threads: expected at most %u, got '%s'",
                      std::numeric_limits<unsigned>::max(), v);
            opts.threads = static_cast<unsigned>(n);
        }
        else if (const char *v = matchFlag(arg, "checkpoint-at"))
            opts.checkpointAt = parseU64(v, "--checkpoint-at");
        else if (const char *v = matchFlag(arg, "checkpoint-out"))
            opts.checkpointOut = v;
        else if (arg == "--checkpoint-stop" || arg == "checkpoint-stop")
            opts.checkpointStop = true;
        else if (const char *v = matchFlag(arg, "restore"))
            opts.restorePath = v;
        else if (const char *v = matchFlag(arg, "journal"))
            opts.journalPath = v;
        else if (const char *v = matchFlag(arg, "resume")) {
            opts.resume = true;
            opts.journalPath = v;
        }
        else if (const char *v = matchFlag(arg, "seed"))
            opts.seed = parseU64(v, "--seed");
        else if (arg == "--no-skip-ahead" || arg == "no-skip-ahead")
            opts.skipAhead = false;
        else if (const char *v = matchFlag(arg, "check"))
            opts.checkLevel = check::checkLevelFromString(v);
        else if (const char *v = matchFlag(arg, "inject-fault"))
            check::activeFaultPlan().parse(v);
        else if (rest)
            rest->push_back(arg);
        else
            fatal("unknown argument '%s'", arg.c_str());
    }
    return opts;
}

} // namespace s64v::obs
