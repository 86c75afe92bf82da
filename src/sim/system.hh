/**
 * @file
 * System assembly: N cores plus the shared memory system, advanced by
 * a cycle-driven loop. This is the executable form of the paper's
 * performance model (UP or SMP depending on numCpus).
 */

#ifndef S64V_SIM_SYSTEM_HH
#define S64V_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "check/watchdog.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "sim/clocked.hh"
#include "trace/trace.hh"

namespace s64v
{

namespace obs
{
class IntervalSampler;
class Heartbeat;
} // namespace obs

/**
 * Checkpoint trigger configured on a run. Inactive unless a path is
 * set (the path alone arms it, so cycle 0 — a snapshot after the very
 * first cycle — is a valid trigger); the snapshot is written after
 * every tick and probe of @ref atCycle has run, so a restored run
 * continues at atCycle + 1 bit-identically.
 */
struct CheckpointParams
{
    Cycle atCycle = 0;      ///< write after this cycle.
    std::string path;       ///< snapshot file; "" disables the trigger.
    bool stopAfter = false; ///< end the run right after writing.
};

/** Whole-machine configuration. */
struct SystemParams
{
    CoreParams core;
    MemParams mem;
    unsigned numCpus = 1;
    std::uint64_t maxCycles = 400'000'000ull; ///< forward-progress cap.
    /**
     * Cache/predictor warm-up: once every core has committed this
     * many instructions, all statistics are reset and the measurement
     * window begins (standard practice for short traces; the paper's
     * traces are sampled from steady state for the same reason). The
     * standard value is standardWarmup() of the trace length.
     */
    std::uint64_t warmupInstrs = 0;
    /**
     * Watchdog threshold: panic when no core commits for this many
     * cycles and no in-flight fill is about to land (0 = disabled).
     * See check::Watchdog.
     */
    std::uint64_t watchdogCycles = check::kDefaultWatchdogCycles;
    /**
     * Skip-ahead scheduling: when every core is quiescent, the cycle
     * kernel jumps straight to the next cycle any core or probe can
     * act, and each core's next settle accounts the skipped cycles
     * as the per-cycle loop would have; the quiescence memo, leaving
     * proven-idle cores unticked (see CycleKernel::setSkipAhead) and
     * each core's stage gating (see Core::tick) ride along.
     * Bit-identical to plain ticking by
     * contract (chaos invariant "skipahead-identity");
     * --no-skip-ahead selects the plain loop.
     */
    bool skipAhead = true;
    /** Unread by the simulator; simbench/ still sets and prints it. */
    bool flatDispatch = false;
    /** Unread by the simulator; simbench/ still sets and prints it. */
    bool memoQuiescence = true;
    /** Self-check depth; see check::InvariantAuditor. */
    check::CheckLevel checkLevel = check::CheckLevel::EndOfRun;
    /** Mid-run snapshot trigger (see CheckpointParams). */
    CheckpointParams checkpoint;
};

/**
 * The standard SystemParams::warmupInstrs for traces of @p instrs
 * records per CPU: the first fifth primes caches and predictors, and
 * the remainder is measured.
 */
constexpr std::uint64_t
standardWarmup(std::uint64_t instrs)
{
    return instrs / 5;
}

/** Per-core outcome of a simulation. */
struct CoreResult
{
    std::uint64_t committed = 0;   ///< total, including warm-up.
    std::uint64_t measured = 0;    ///< committed inside the window.
    Cycle lastCommitCycle = 0;     ///< absolute cycle.
    double ipc = 0.0;              ///< measured-window IPC.
};

/** Outcome of a simulation run. */
struct SimResult
{
    Cycle cycles = 0;              ///< measured-window cycles (max).
    std::uint64_t instructions = 0;///< total committed (all cores).
    std::uint64_t measured = 0;    ///< window instructions.
    double ipc = 0.0;              ///< aggregate window throughput.
    /**
     * The run stopped at SystemParams::maxCycles instead of draining
     * — almost always a model deadlock. Surfaced in the stats JSON
     * ("run.hit_cycle_cap") and in crash reports so a capped run is
     * distinguishable from a clean finish after the fact.
     */
    bool hitCycleCap = false;
    /** Run stopped early by SIGINT/SIGTERM (see check/signals.hh). */
    bool interrupted = false;
    /** Run ended at a --checkpoint-stop point (not an error). */
    bool stoppedAtCheckpoint = false;
    Cycle warmupEndCycle = 0;
    /**
     * Cycles the kernel skipped over rather than ticked (0 on the
     * plain path). Host-side diagnostics only — deliberately never
     * exported into the stats JSON, which must stay bit-identical
     * between the two scheduling modes.
     */
    std::uint64_t elidedCycles = 0;
    std::vector<CoreResult> cores;
};

/**
 * Whether @p a and @p b are the same run, bit for bit: cycles,
 * instruction totals, IPC, the warm-up boundary, the cycle-cap
 * outcome and every core's result. elidedCycles, interrupted and
 * stoppedAtCheckpoint say how a run was driven, not what it
 * simulated, and are not compared. @return "" if they match, else
 * the first difference.
 */
std::string diffSim(const SimResult &a, const SimResult &b);

/**
 * Run position carried across a checkpoint: the first cycle the next
 * run() simulates plus the warm-up bookkeeping that would otherwise
 * live in run()-local variables. Serialized as the snapshot's "run"
 * section; a fresh System starts from the zero state.
 */
struct RunContinuation
{
    Cycle nextCycle = 0;     ///< first cycle the next run() simulates.
    bool warmDone = false;   ///< warm-up stats reset already happened.
    Cycle warmupEndCycle = 0;
};

/** A runnable machine instance. */
class System
{
  public:
    System(const SystemParams &params,
           const std::string &name = "sim");
    ~System();

    /**
     * Attach @p trace as CPU @p cpu's input. The trace is shared, not
     * copied: N sweep points over the same workload reference one
     * immutable trace (the system keeps it alive for its lifetime).
     */
    void attachTrace(CpuId cpu, std::shared_ptr<const InstrTrace> trace);

    /** Convenience overload: wrap an owned trace and attach it. */
    void attachTrace(CpuId cpu, InstrTrace trace)
    {
        attachTrace(cpu, std::make_shared<const InstrTrace>(
                             std::move(trace)));
    }

    /**
     * Attach an interval sampler ticked every sampler->period() cycles
     * during run(). Pass nullptr to detach. The sampler must outlive
     * the run.
     */
    void attachSampler(obs::IntervalSampler *sampler)
    {
        sampler_ = sampler;
    }

    /** Attach a heartbeat ticked every heartbeat->period() cycles. */
    void attachHeartbeat(obs::Heartbeat *heartbeat)
    {
        heartbeat_ = heartbeat;
    }

    /**
     * Attach a host-time profiler, forwarded to the cycle kernel
     * run() builds (see TickProfiler; simbench's traced run is the
     * user). Must outlive the run.
     */
    void attachProfiler(TickProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /** Run to completion (or the cycle cap). */
    SimResult run();

    Core &core(CpuId cpu) { return *cores_[cpu]; }
    MemSystem &mem() { return *mem_; }
    stats::Group &root() { return root_; }
    const SystemParams &params() const { return params_; }

    /** Trace cursor / shared-trace access (checkpoint subsystem). @{ */
    VectorTraceSource *traceSource(CpuId cpu)
    {
        return sources_[cpu].get();
    }
    const InstrTrace *trace(CpuId cpu) const
    {
        return traces_[cpu].get();
    }
    /** @} */

    /** Run position carried across checkpoint/restore. @{ */
    const RunContinuation &continuation() const { return cont_; }
    void setContinuation(const RunContinuation &cont) { cont_ = cont; }
    /** @} */

    /** Cycle the run loop is at (crash reports; live while running). */
    Cycle currentCycle() const
    {
        return kernel_ ? kernel_->currentCycle() : currentCycle_;
    }

    /** True once the run has stopped at the maxCycles cap (live). */
    bool hitCycleCap() const { return hitCycleCap_; }

    /**
     * Bring every stat up to date (CycleKernel::settle while a run is
     * live, else each core's settle()). run() settles on every exit;
     * call this before reading a live machine's stats from outside
     * the loop, as the crash hook's salvage does.
     */
    void settleStats();

  private:
    /** Warm-up-reset-immune commit total (watchdog, heartbeat and
     *  sampler food). */
    std::uint64_t totalRawCommitted() const;

    SystemParams params_;
    stats::Group root_;
    std::unique_ptr<MemSystem> mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::shared_ptr<const InstrTrace>> traces_;
    std::vector<std::unique_ptr<VectorTraceSource>> sources_;
    obs::IntervalSampler *sampler_ = nullptr;
    obs::Heartbeat *heartbeat_ = nullptr;
    TickProfiler *profiler_ = nullptr;
    std::unique_ptr<CycleKernel> kernel_; ///< live during run().
    Cycle currentCycle_ = 0;
    bool hitCycleCap_ = false;
    RunContinuation cont_;
};

} // namespace s64v

#endif // S64V_SIM_SYSTEM_HH
