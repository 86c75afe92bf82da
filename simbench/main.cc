/**
 * @file
 * Command line of the simulator benchmark:
 *
 *   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--spans-dir <dir>] [--source-rev <rev>]
 *            [--inject-fault=<kind>:<n>]
 *
 * --trace 0 runs the end-to-end measurement, --trace 1 the traced run
 * with the per-layer metrics. Human-readable lines come first; the
 * last line of standard output is the result as one JSON object.
 * Failed simulations are counted, not fatal: the process runs with
 * throw-on-error and exits 0 whenever it could print a result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/logging.hh"
#include "model/fingerprint.hh"
#include "obs/json.hh"
#include "obs/run_obs.hh"
#include "simbench.hh"
#include "workload/workloads.hh"

namespace simbench
{

using namespace s64v;

void
Report::fail(const std::string &what)
{
    ++failed;
    correct = false;
    lines.push_back("FAILED: " + what);
}

std::size_t
SpanLog::begin(const std::string &name, const std::string &layer,
               std::size_t parent)
{
    const double at = std::chrono::duration<double>(Clock::now() -
                                                    origin_)
                          .count();
    spans_.push_back({name, layer, parent, at, at});
    return spans_.size() - 1;
}

void
SpanLog::end(std::size_t id)
{
    spans_[id].end =
        std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::size_t
SpanLog::add(const std::string &name, const std::string &layer,
             std::size_t parent, Clock::time_point start,
             Clock::time_point end)
{
    spans_.push_back(
        {name, layer, parent,
         std::chrono::duration<double>(start - origin_).count(),
         std::chrono::duration<double>(end - origin_).count()});
    return spans_.size() - 1;
}

namespace
{

/** A JSON number with every digit; JSON has no NaN or infinity. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
SpanLog::json() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out += i ? ",\n " : "\n ";
        out += "{\"id\": " + std::to_string(i) + ", \"parent\": " +
            (s.parent == kNoParent ? std::string("null")
                                   : std::to_string(s.parent)) +
            ", \"name\": \"" + obs::escapeJson(s.name) +
            "\", \"layer\": \"" + obs::escapeJson(s.layer) +
            "\", \"start_s\": " + num(s.start) +
            ", \"end_s\": " + num(s.end) + "}";
    }
    return out + "\n]";
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::string
provenanceJson(const WorkloadSpec &w, const Options &o)
{
    obs::JsonWriter j;
    j.beginObject();
    j.field("model_version", modelVersionString());
    j.field("source_rev", o.sourceRev);
    j.field("build_type", SIMBENCH_BUILD_TYPE);
    j.field("cxx_flags", SIMBENCH_CXX_FLAGS);
    j.field("compiler", SIMBENCH_COMPILER);
    j.field("nproc",
            std::uint64_t{std::thread::hardware_concurrency()});
    j.field("worker_threads", std::uint64_t{workerThreads()});
    j.field("workload", w.name);
    j.field("seed", o.seed);
    j.field("records_per_cpu", std::uint64_t{w.instrsPerCpu});

    const SystemParams &sys = sparc64vBase(w.cpus).sys;
    j.beginObject("engine");
    j.field("skip_ahead", sys.skipAhead);
    j.field("flat_dispatch", sys.flatDispatch);
    j.field("memo_quiescence", sys.memoQuiescence);
    j.field("watchdog_cycles", sys.watchdogCycles);
    j.field("check_level",
            std::uint64_t{static_cast<unsigned>(sys.checkLevel)});
    j.end();

    // Fingerprints of every workload and machine the run simulates.
    j.beginObject("workloads");
    const std::vector<std::string> presets = w.preset
        ? std::vector<std::string>{w.preset}
        : workloadNames();
    for (const std::string &preset : presets) {
        const WorkloadProfile p = seededProfile(preset, o.seed);
        j.beginObject(preset);
        j.field("seed", p.seed);
        j.field("fingerprint", hex(fingerprintWorkload(p)));
        j.end();
    }
    j.end();
    j.beginObject("machines");
    if (w.preset) {
        j.field("base", hex(fingerprintMachine(runMachine(
                            sparc64vBase(w.cpus), Engine::Fast,
                            w.instrsPerCpu))));
    } else {
        for (const auto &[label, m] : sweepVariants()) {
            j.field(label, hex(fingerprintMachine(runMachine(
                               m, Engine::Fast, w.instrsPerCpu))));
        }
    }
    j.end();
    j.end();
    return j.str();
}

} // namespace simbench

namespace
{

using namespace simbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-dir <dir>] [--source-rev <rev>] "
                 "[--inject-fault=<kind>:<n>]\nworkloads: %s\n",
                 why, workloadList().c_str());
    std::exit(2);
}

std::string
resultJson(const Report &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--inject-fault=", 0) == 0) {
            const char *fault[] = {argv[0], argv[i]};
            obs::parseObsArgs(2, fault);
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            haveSeed = *end == '\0' && !val.empty();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            haveSeconds = *end == '\0' && o.seconds >= 0.0;
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
            haveTrace = true;
        } else if (arg == "--spans-dir") {
            o.spansDir = val;
        } else if (arg == "--source-rev") {
            o.sourceRev = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    const WorkloadSpec *w = findWorkload(o.workload);
    if (!w)
        usage(("unknown workload " + o.workload).c_str());

    // Panics and fatals become exceptions, counted as failed runs.
    setThrowOnError(true);
    if (logLevel() == LogLevel::Info)
        setLogLevel(LogLevel::Warn);

    SpanLog spans;
    const Report r =
        o.trace ? runTraced(*w, o, spans) : runEndToEnd(*w, o);
    const std::string provenance = provenanceJson(*w, o);

    for (const std::string &line : r.lines)
        std::printf("%s\n", line.c_str());
    for (const Metric &m : r.metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("provenance %s\n", provenance.c_str());
    if (o.trace && !o.spansDir.empty()) {
        const std::string path = o.spansDir + "/spans-" + w->name +
            "-seed" + std::to_string(o.seed) + ".json";
        std::ofstream f(path);
        f << "{\"provenance\": " << provenance
          << ",\n\"counters\": " << resultJson(r)
          << ",\n\"spans\": " << spans.json() << "}\n";
        if (f)
            std::printf("spans written to %s\n", path.c_str());
        else
            std::fprintf(stderr, "simbench: cannot write %s\n",
                         path.c_str());
    }
    std::printf("%s\n", resultJson(r).c_str());
    return 0;
}
