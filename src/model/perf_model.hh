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
 * One configured performance model. A PerfModel owns its traces; each
 * run() builds a fresh System so the same model can be re-run.
 *
 * Observability: run() consults the process-wide obs::runObsOptions()
 * (populated by obs::parseObsArgs from any entry point's argv) and
 * attaches the matching observers — interval sampler, heartbeat,
 * Chrome-trace writer — to the System it builds, then writes the
 * stats-JSON / trace files after the run.
 *
 * Robustness: run() installs crash reporting (panic/fatal dumps the
 * dying system's state as JSON, see check/crash_report.hh) and a
 * SIGINT/SIGTERM guard that stops the run at the next cycle boundary
 * with all observer outputs flushed. The watchdog and invariant
 * auditor are configured through SystemParams or the --watchdog= /
 * --check= flags.
 */
class PerfModel
{
  public:
    explicit PerfModel(MachineParams params);
    ~PerfModel();

    /**
     * Synthesize traces for every CPU from @p profile
     * (@p instrs_per_cpu records each).
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
     * Mark this model as embedded in a sweep: run() skips the
     * process-level conveniences that are not thread-safe or would
     * collide across concurrent runs — consulting the file-output
     * observability options, installing crash reporting and signal
     * handlers — while still honouring the watchdog / check-level
     * overrides. The sweep runner owns those process-level concerns
     * once for the whole sweep.
     */
    void setEmbedded(bool embedded) { embedded_ = embedded; }

    /**
     * Build a fresh system with traces and observers attached but do
     * not run it. run() calls this; tests and tools can use it to
     * inspect or tweak the system before running.
     */
    System &prepare();

    /** Build a fresh system, run it, keep it for inspection. */
    SimResult run();

    /** The system of the most recent run(); panics if none. */
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
    std::vector<std::shared_ptr<const InstrTrace>> traces_;
    std::unique_ptr<System> system_;
    bool embedded_ = false;

    /** Observers for the current system (see obs::runObsOptions). @{ */
    std::unique_ptr<obs::IntervalSampler> sampler_;
    std::unique_ptr<obs::Heartbeat> heartbeat_;
    std::unique_ptr<obs::ChromeTraceWriter> trace_;
    std::vector<std::unique_ptr<PipeviewRecorder>> pipeviews_;
    /** @} */
};

} // namespace s64v

#endif // S64V_MODEL_PERF_MODEL_HH
