/**
 * @file
 * The experiment engine: declarative parameter sweeps run on a worker
 * pool. A Sweep is an ordered list of (machine, workload) points; a
 * SweepRunner synthesizes every distinct trace once up front (shared
 * immutably across points, see exp::TracePool), then dispatches the
 * points in point order to N threads with per-point error isolation —
 * one panicking configuration is reported as a failed point instead
 * of killing the whole sweep. Each point runs exactly once: a point
 * is a deterministic function of its machine and its trace, so a
 * second run could only repeat the first one's outcome. Results come
 * back in point order regardless of the worker count, and a
 * single-run sweep executes the exact serial code path, so serial and
 * parallel sweeps produce bit-identical SimResults point for point.
 * Progress is reported only through SweepOptions::progressFn.
 *
 * Run options: SweepOptions::run carries the entry point's parsed
 * flags. The runner applies the ones that concern a sweep — threads,
 * seed, watchdog, check level, engine, crash-report path, journal and
 * resume — and ignores the single-run outputs (stats JSON, traces,
 * samples, pipeview, checkpoints): a sweep point writes nothing. Every
 * point that dies is one entry, named by its label and index, in the
 * sweep's one crash document.
 *
 * Thread count: SweepOptions::threads, else run.threads (--threads=N),
 * else one worker per hardware thread.
 */

#ifndef S64V_EXP_SWEEP_HH
#define S64V_EXP_SWEEP_HH

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/trace_pool.hh"
#include "model/params.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

namespace s64v::exp
{

/** One simulation to run: a machine playing a workload. */
struct SweepPoint
{
    /** Human-readable point name used in logs and failure reports. */
    std::string label;
    MachineParams machine;
    WorkloadProfile profile;
    /** Trace records per CPU. */
    std::size_t instrs = 0;
};

/**
 * Hook run on the worker thread after a point finishes, while its
 * System is still alive — the only chance to read component-level
 * counters (branch-predictor ratios, cache miss ratios, bus
 * transactions, ...) that are not part of SimResult. Store what you
 * need into @p metrics under names of your choosing.
 */
using MetricFn = std::function<void(
    PerfModel &model, const SimResult &res,
    std::map<std::string, double> &metrics)>;

/** Outcome of one sweep point. */
struct PointResult
{
    std::string label;
    SimResult sim;
    /** Values captured by the sweep's MetricFn (empty if none). */
    std::map<std::string, double> metrics;
    /** False if the point panicked/fataled; see error. */
    bool ok = false;
    /** Diagnostic for a failed point. */
    std::string error;
};

/** An ordered batch of sweep points plus an optional metric probe. */
class Sweep
{
  public:
    /** Append a point; returns it for further tweaking. */
    SweepPoint &add(std::string label, MachineParams machine,
                    WorkloadProfile profile, std::size_t instrs);

    /** Install the per-point metric probe (see MetricFn). */
    void setMetricFn(MetricFn fn) { metricFn_ = std::move(fn); }

    const std::vector<SweepPoint> &points() const { return points_; }
    const MetricFn &metricFn() const { return metricFn_; }
    std::size_t size() const { return points_.size(); }

  private:
    std::vector<SweepPoint> points_;
    MetricFn metricFn_;
};

struct SweepOptions
{
    /**
     * Worker threads; 0 defers to run.threads (--threads=N) and then
     * to std::thread::hardware_concurrency(). Clamped to the point
     * count. 1 runs every point inline on the calling thread.
     */
    unsigned threads = 0;
    /**
     * Called on the finishing worker's thread after each point
     * completes (ok, failed, prefilled from the journal, or skipped
     * by an interrupt), with the points finished so far, the sweep
     * size, and the aggregate host speed in KIPS of the points run
     * so far. Calls never overlap: `done` counts up one call at a
     * time, so the last call reports the whole sweep.
     */
    std::function<void(std::size_t done, std::size_t total,
                       double agg_kips)> progressFn;
    /**
     * The run options (see the file comment): journalPath and
     * resume make the sweep durable; seed, watchdog, check level and
     * engine apply to every point.
     */
    obs::ObsOptions run;
};

/**
 * Executes Sweeps. Owns the process-level run machinery (the crash
 * sink, the SIGINT/SIGTERM guard) for exactly the span of run(); each
 * point runs through PerfModel::prepare() and System::run(), which
 * install neither. The process-wide fault-injection plan must not be
 * mutated while run() is executing.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {})
        : opts_(std::move(opts)) {}

    /**
     * Run every point; @return results in point order. A failed point
     * occupies its slot with ok == false and a default SimResult.
     * Ctrl-C stops dispatching new points; already-running points
     * finish at the next cycle boundary and undispatched points come
     * back as failed with error "interrupted".
     */
    std::vector<PointResult> run(const Sweep &sweep) const;

    /**
     * The worker count run() will use for @p num_points points (see
     * SweepOptions::threads).
     */
    unsigned effectiveThreads(std::size_t num_points) const;

  private:
    /** The machine a point actually runs (warmup convention and run
     *  overrides applied); also what the journal's config hash
     *  covers. */
    MachineParams effectiveMachine(const SweepPoint &point) const;

    void runPoint(const SweepPoint &point, std::size_t index,
                  const TracePool::TraceSet &traces,
                  const MetricFn &metricFn, PointResult &out) const;

    SweepOptions opts_;
};

} // namespace s64v::exp

#endif // S64V_EXP_SWEEP_HH
