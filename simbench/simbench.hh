/**
 * @file
 * The simulator benchmark: workloads, output checks and the two kinds
 * of run (end-to-end and traced). Every layer is measured from outside
 * through its public functions; nothing here reaches into src/.
 */

#ifndef SIMBENCH_SIMBENCH_HH
#define SIMBENCH_SIMBENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "exp/trace_pool.hh"
#include "model/params.hh"
#include "model/perf_model.hh"
#include "workload/profile.hh"

namespace simbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    /**
     * Workload seed. 0 keeps every preset's own seed (the inputs the
     * figure harnesses use); any other value is mixed into each
     * preset's seed, as the simulator's --seed= flag does.
     */
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the traced run writes its span file to ("" = none). */
    std::string spansDir;
    /** Source revision of the simulator under test (provenance). */
    std::string sourceRev = "unknown";
};

/** One benchmark workload. */
struct WorkloadSpec
{
    const char *name;
    /** Workload preset; nullptr for the figure sweep. */
    const char *preset;
    unsigned cpus;
    /** Trace records per CPU (per point for the sweep). */
    std::size_t instrsPerCpu;
};

/** @return the workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, for the usage message. */
std::string workloadList();

/** Preset @p preset with the benchmark seed @p seed mixed in. */
s64v::WorkloadProfile seededProfile(const std::string &preset,
                                    std::uint64_t seed);

/** Simulation engines the benchmark runs. */
enum class Engine
{
    Fast,  ///< the shipping engine (the machine presets' default).
    Plain, ///< the per-cycle reference loop.
};

/**
 * @p m on engine @p e, with the standard warm-up of
 * PerfModel::loadWorkload: the first fifth of each @p instrs-record
 * trace, so the modelled caches start empty.
 */
s64v::MachineParams runMachine(s64v::MachineParams m, Engine e,
                               std::size_t instrs);

/** One trace per CPU, synthesized like PerfModel::loadWorkload. */
s64v::exp::TracePool::TraceSet
synthesize(const s64v::WorkloadProfile &profile, unsigned cpus,
           std::size_t instrs);

/** Records in @p traces. */
std::uint64_t recordCount(const s64v::exp::TracePool::TraceSet &traces);

/**
 * Worker threads of a run: nproc, at most four. The sweep runs on
 * this many threads; a single-run workload runs this many copies.
 */
unsigned workerThreads();

/**
 * The figure-regeneration sweep: every preset of workloadNames() on
 * seven of the machine variants Figs. 8-18 compare, @p instrs records per
 * point, on engine @p e. Each point's stats digest is captured as the
 * metrics "digest_hi" / "digest_lo".
 */
s64v::exp::Sweep figureSweep(std::uint64_t seed, std::size_t instrs,
                             Engine e);

/** Digest of a sweep point captured by figureSweep(). */
std::uint64_t pointDigest(const s64v::exp::PointResult &point);

/** Labels and machines of the sweep's variants (provenance). */
std::vector<std::pair<std::string, s64v::MachineParams>> sweepVariants();

/** FNV-1a of the run's obs::exportStatsJson document. */
std::uint64_t statsDigest(s64v::System &sys,
                          const s64v::SimResult &res);

/** "%016x" of @p v. */
std::string hex(std::uint64_t v);

/**
 * Throw std::runtime_error unless @p res drained every record of
 * @p traces: not capped, not interrupted, and every CPU committed
 * its whole trace.
 */
void requireDrained(const s64v::SimResult &res,
                    const s64v::exp::TracePool::TraceSet &traces);

/** A checked single run; the model stays alive for inspection. */
struct SingleRun
{
    std::unique_ptr<s64v::PerfModel> model;
    s64v::SimResult res;
    std::uint64_t digest = 0;
    Clock::time_point buildStart, runStart, runEnd, checkEnd;

    double buildS() const;
    double runS() const;
};

/**
 * Build a model of @p machine over @p traces (PerfModel::prepare),
 * call @p beforeRun on its system, run it (System::run) and check
 * that it drained. A panic or fatal surfaces as an exception, since
 * the benchmark runs with throw-on-error.
 */
SingleRun runSingle(
    const s64v::MachineParams &machine,
    const s64v::exp::TracePool::TraceSet &traces,
    const std::function<void(s64v::System &)> &beforeRun = {});

/**
 * In-memory span log. Spans nest through their parent id; the traced
 * run writes the log out when it ends.
 */
class SpanLog
{
  public:
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    SpanLog() : origin_(Clock::now()) {}

    std::size_t begin(const std::string &name, const std::string &layer,
                      std::size_t parent = kNoParent);
    void end(std::size_t id);

    /** Record a finished span. @return its id. */
    std::size_t add(const std::string &name, const std::string &layer,
                    std::size_t parent, Clock::time_point start,
                    Clock::time_point end);

    /** The spans as a JSON array. */
    std::string json() const;

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        std::size_t parent;
        double start;
        double end;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What a run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Every output check passed. */
    bool correct = true;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> lines;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one failed run and say why. */
    void fail(const std::string &what);
};

/** Provenance of this run as a JSON object. */
std::string provenanceJson(const WorkloadSpec &w, const Options &o);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] of @p v. */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** The end-to-end run: kips, setup_s, peak_rss_mb, ok_rate. */
Report runEndToEnd(const WorkloadSpec &w, const Options &o);

/** The traced run: every per-layer metric, plus its span log. */
Report runTraced(const WorkloadSpec &w, const Options &o,
                 SpanLog &spans);

} // namespace simbench

#endif // SIMBENCH_SIMBENCH_HH
