#include "exp/self_profile.hh"

#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/file_util.hh"
#include "common/logging.hh"
#include "obs/bench_record.hh"
#include "obs/json.hh"

namespace s64v::exp
{

namespace
{

struct Aggregate
{
    std::mutex mutex;
    ProfileTotals totals;
    std::uint64_t sampledCycles = 0;
    std::uint64_t elidedCycles = 0;
    std::uint64_t runs = 0;
    std::uint64_t period = kDefaultSelfProfilePeriod;
};

Aggregate &
aggregate()
{
    static Aggregate agg;
    return agg;
}

} // namespace

SelfProfiler::SelfProfiler(std::uint64_t period)
    : period_(period ? period : kDefaultSelfProfilePeriod)
{
}

void
SelfProfiler::recordTick(const Clocked &component, std::uint64_t ns)
{
    ProfileClassTotals &t = totals_[component.profileClass()];
    ++t.samples;
    t.ns += ns;
}

void
SelfProfiler::recordProbes(std::uint64_t ns)
{
    ProfileClassTotals &t = totals_["probes"];
    ++t.samples;
    t.ns += ns;
}

void
mergeSelfProfile(const SelfProfiler &profiler)
{
    Aggregate &agg = aggregate();
    std::lock_guard<std::mutex> lock(agg.mutex);
    for (const auto &[cls, t] : profiler.totals()) {
        ProfileClassTotals &dst = agg.totals[cls];
        dst.samples += t.samples;
        dst.ns += t.ns;
    }
    agg.sampledCycles += profiler.sampledCycles();
    agg.elidedCycles += profiler.elidedCycles();
    agg.period = profiler.period();
    ++agg.runs;
}

ProfileTotals
selfProfileTotals()
{
    Aggregate &agg = aggregate();
    std::lock_guard<std::mutex> lock(agg.mutex);
    return agg.totals;
}

std::uint64_t
selfProfileSampledCycles()
{
    Aggregate &agg = aggregate();
    std::lock_guard<std::mutex> lock(agg.mutex);
    return agg.sampledCycles;
}

std::uint64_t
selfProfileRuns()
{
    Aggregate &agg = aggregate();
    std::lock_guard<std::mutex> lock(agg.mutex);
    return agg.runs;
}

void
resetSelfProfile()
{
    Aggregate &agg = aggregate();
    std::lock_guard<std::mutex> lock(agg.mutex);
    agg.totals.clear();
    agg.sampledCycles = 0;
    agg.elidedCycles = 0;
    agg.runs = 0;
}

std::string
renderSelfProfileJson()
{
    Aggregate &agg = aggregate();
    std::lock_guard<std::mutex> lock(agg.mutex);

    std::uint64_t total_ns = 0;
    for (const auto &[cls, t] : agg.totals)
        total_ns += t.ns;

    // Sampled 1-in-period: scale the sampled time up to estimate the
    // whole loop's tick time.
    const double sampled_seconds =
        static_cast<double>(total_ns) / 1e9;
    const double est_total_seconds =
        sampled_seconds * static_cast<double>(agg.period);
    const std::uint64_t instrs = obs::benchInstructions();

    obs::JsonWriter w;
    w.beginObject();
    w.field("sample_period", agg.period);
    w.field("runs", agg.runs);
    w.field("sampled_cycles", agg.sampledCycles);
    // Cycles the skip-ahead kernel never ticked at all; zero host
    // time was spent there, so they appear as their own class rather
    // than inflating any per-tick estimate.
    w.field("elided_cycles", agg.elidedCycles);
    w.field("sampled_seconds", sampled_seconds);
    w.field("est_total_seconds", est_total_seconds);
    w.field("instructions", instrs);
    w.field("kips", est_total_seconds > 0.0
            ? static_cast<double>(instrs) / est_total_seconds / 1000.0
            : 0.0);
    w.beginObject("classes");
    for (const auto &[cls, t] : agg.totals) {
        w.beginObject(cls);
        w.field("samples", t.samples);
        w.field("seconds", static_cast<double>(t.ns) / 1e9);
        w.field("share", total_ns
                ? static_cast<double>(t.ns) /
                  static_cast<double>(total_ns)
                : 0.0);
        w.end();
    }
    if (agg.elidedCycles != 0) {
        // Synthetic class: skipped cycles cost no wall time by
        // definition, so samples counts the cycles themselves.
        w.beginObject("elided");
        w.field("samples", agg.elidedCycles);
        w.field("seconds", 0.0);
        w.field("share", 0.0);
        w.end();
    }
    w.end();
    w.end();
    return w.str();
}

bool
writeSelfProfileJson(const std::string &path)
{
    {
        Aggregate &agg = aggregate();
        std::lock_guard<std::mutex> lock(agg.mutex);
        if (agg.totals.empty())
            return false;
    }
    std::string out = path;
    if (out.empty()) {
        const char *dir = std::getenv("S64V_BENCH_DIR");
        out = std::string(dir && *dir ? dir : ".") +
            "/BENCH_selfprofile.json";
    }
    std::string err;
    if (!atomicWriteFile(out, renderSelfProfileJson() + '\n', &err)) {
        warn("cannot write self-profile to '%s': %s", out.c_str(),
             err.c_str());
        return false;
    }
    return true;
}

} // namespace s64v::exp
