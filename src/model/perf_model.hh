/**
 * @file
 * The performance-model facade: the paper's trace-driven software
 * simulator as a single object. Configure a machine, attach or
 * synthesize workload traces, run, inspect.
 */

#ifndef S64V_MODEL_PERF_MODEL_HH
#define S64V_MODEL_PERF_MODEL_HH

#include <memory>
#include <vector>

#include "model/params.hh"
#include "obs/run_obs.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

namespace s64v
{

namespace obs
{
class ChromeTraceWriter;
class Heartbeat;
class IntervalSampler;
} // namespace obs

/**
 * Apply @p run's machine overrides (--watchdog=, --check=,
 * --no-skip-ahead) to @p sys. PerfModel::prepare() and
 * exp::SweepRunner share it, so a single run and a sweep point
 * resolve those flags the same way.
 */
void applyRunOverrides(SystemParams &sys, const obs::ObsOptions &run);

/**
 * One configured performance model. A PerfModel owns its traces; each
 * run() builds a fresh System so the same model can be re-run.
 *
 * Options: the model keeps the obs::ObsOptions it was built with
 * (parsed by obs::parseObsArgs from an entry point's argv; default:
 * none). prepare() applies their overrides and attaches the observers
 * they name — interval sampler, heartbeat, Chrome-trace writer,
 * pipeview recorders — and run() writes the stats-JSON / trace files
 * after the run. A model built without options attaches no observer
 * and writes nothing; the sweep runner and the chaos invariants run
 * their points that way, through prepare() and System::run().
 *
 * Robustness: while it runs, run() holds the crash sink (panic/fatal
 * dumps the dying system's state as JSON, see check/crash_report.hh)
 * and a SIGINT/SIGTERM guard that stops the run at the next cycle
 * boundary with all observer outputs flushed. The watchdog and
 * invariant auditor are configured through SystemParams or the
 * --watchdog= / --check= flags.
 */
class PerfModel
{
  public:
    explicit PerfModel(MachineParams params, obs::ObsOptions run = {});
    ~PerfModel();

    /**
     * Synthesize traces for every CPU from @p profile
     * (@p instrs_per_cpu records each), its seed re-keyed by the
     * model's --seed= (see obs::effectiveWorkloadSeed).
     */
    void loadWorkload(const WorkloadProfile &profile,
                      std::size_t instrs_per_cpu);

    /**
     * Attach a pre-built immutable trace to one CPU. The trace is
     * shared, not copied — N models sweeping a parameter space can
     * reference one synthesis result (see exp::TracePool).
     */
    void loadTrace(CpuId cpu, std::shared_ptr<const InstrTrace> trace);

    /** Convenience overload: wrap an owned trace and attach it. */
    void loadTrace(CpuId cpu, InstrTrace trace)
    {
        loadTrace(cpu, std::make_shared<const InstrTrace>(
                           std::move(trace)));
    }

    /**
     * Build a fresh system with the options' overrides applied and
     * their observers attached, but do not run it. run() calls this;
     * sweeps, tests and tools call it and then System::run().
     */
    System &prepare();

    /**
     * The single-run entry point: under the crash sink and the
     * signal guard, prepare() and run the system, write the output
     * files the options name. Keeps the system for inspection.
     */
    SimResult run();

    /** The system of the most recent prepare(); panics if none. */
    System &system();

    const MachineParams &params() const { return params_; }

    /**
     * One-shot helper: configure, synthesize, run.
     */
    static SimResult simulate(const MachineParams &machine,
                              const WorkloadProfile &profile,
                              std::size_t instrs_per_cpu);

  private:
    void attachObservers();
    void finishObservers(const SimResult &res);

    MachineParams params_;
    obs::ObsOptions run_;
    std::vector<std::shared_ptr<const InstrTrace>> traces_;
    std::unique_ptr<System> system_;

    /** Observers for the current system (see run_). @{ */
    std::unique_ptr<obs::IntervalSampler> sampler_;
    std::unique_ptr<obs::Heartbeat> heartbeat_;
    std::unique_ptr<obs::ChromeTraceWriter> trace_;
    std::vector<std::unique_ptr<PipeviewRecorder>> pipeviews_;
    /** @} */
};

} // namespace s64v

#endif // S64V_MODEL_PERF_MODEL_HH
