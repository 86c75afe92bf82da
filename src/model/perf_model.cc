#include "model/perf_model.hh"

#include <fstream>

#include "check/crash_report.hh"
#include "check/signals.hh"
#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "obs/chrome_trace.hh"
#include "obs/heartbeat.hh"
#include "obs/run_obs.hh"
#include "obs/sampler.hh"
#include "obs/stats_export.hh"
#include "workload/generator.hh"

namespace s64v
{

namespace
{

/** Default sampling period when an output is requested without one. */
constexpr std::uint64_t kDefaultSamplePeriod = 10'000;

/** Pipeview depth per core when exporting a Chrome trace. */
constexpr std::size_t kTracePipeviewCapacity = 4096;

} // namespace

PerfModel::PerfModel(MachineParams params)
    : params_(std::move(params))
{
    traces_.resize(params_.sys.numCpus);
}

PerfModel::~PerfModel() = default;

void
PerfModel::loadWorkload(const WorkloadProfile &profile,
                        std::size_t instrs_per_cpu)
{
    // Honour the process-wide --seed= policy the same way TracePool
    // does, so direct loads and pooled sweeps synthesize identical
    // traces for identical (global seed, profile) pairs.
    WorkloadProfile effective = profile;
    effective.seed = obs::effectiveWorkloadSeed(profile.seed);
    TraceGenerator gen(effective, params_.sys.numCpus);
    for (CpuId cpu = 0; cpu < params_.sys.numCpus; ++cpu) {
        traces_[cpu] = std::make_shared<const InstrTrace>(
            gen.generate(instrs_per_cpu, cpu));
    }
    // Standard warm-up: the first fifth of the trace primes caches
    // and predictors; measurement covers the remainder.
    params_.sys.warmupInstrs = instrs_per_cpu / 5;
}

void
PerfModel::loadTrace(CpuId cpu,
                     std::shared_ptr<const InstrTrace> trace)
{
    if (cpu >= traces_.size())
        fatal("loadTrace: cpu %u out of range", cpu);
    if (!trace)
        fatal("loadTrace: cpu %u given a null trace", cpu);
    traces_[cpu] = std::move(trace);
}

System &
PerfModel::prepare()
{
    for (CpuId cpu = 0; cpu < traces_.size(); ++cpu) {
        if (!traces_[cpu] || traces_[cpu]->empty())
            fatal("cpu %u has no trace; call loadWorkload/loadTrace",
                  cpu);
    }

    const obs::ObsOptions &opts = obs::runObsOptions();
    SystemParams sys = params_.sys;
    if (!embedded_ && !opts.sampleOutPath.empty() &&
        sys.samplePeriod == 0) {
        sys.samplePeriod = opts.samplePeriod ? opts.samplePeriod
                                             : kDefaultSamplePeriod;
    }
    if (!embedded_ && opts.heartbeatPeriod != 0 &&
        sys.heartbeatPeriod == 0)
        sys.heartbeatPeriod = opts.heartbeatPeriod;
    if (opts.watchdogCycles != obs::ObsOptions::kUnset)
        sys.watchdogCycles = opts.watchdogCycles;
    if (!opts.skipAhead)
        sys.skipAhead = false;
    if (!opts.checkLevel.empty()) {
        sys.checkLevel =
            check::checkLevelFromString(opts.checkLevel.c_str());
    }
    if (!embedded_ && !opts.checkpointOut.empty() &&
        sys.checkpoint.path.empty()) {
        sys.checkpoint.atCycle = opts.checkpointAt;
        sys.checkpoint.path = opts.checkpointOut;
        sys.checkpoint.stopAfter = opts.checkpointStop;
    }

    system_ = std::make_unique<System>(sys, params_.name);
    for (CpuId cpu = 0; cpu < traces_.size(); ++cpu)
        system_->attachTrace(cpu, traces_[cpu]);
    if (!embedded_ && !opts.restorePath.empty())
        ckpt::restoreSystemCheckpoint(*system_, opts.restorePath);
    attachObservers();
    return *system_;
}

void
PerfModel::attachObservers()
{
    const obs::ObsOptions &opts = obs::runObsOptions();
    const SystemParams &sys = system_->params();

    sampler_.reset();
    if (embedded_) {
        // File-output observers are per-process conveniences; N
        // concurrent sweep points must not race on the same paths.
        heartbeat_.reset();
        trace_.reset();
        pipeviews_.clear();
        if (sys.heartbeatPeriod != 0) {
            std::uint64_t expected = 0;
            for (const auto &t : traces_)
                expected += t->size();
            heartbeat_ = std::make_unique<obs::Heartbeat>(expected);
            system_->attachHeartbeat(heartbeat_.get());
        }
        return;
    }
    if (sys.samplePeriod != 0 && !opts.sampleOutPath.empty()) {
        sampler_ = std::make_unique<obs::IntervalSampler>(
            system_->root(), sys.samplePeriod);
        if (sampler_->openFile(opts.sampleOutPath))
            system_->attachSampler(sampler_.get());
        else
            sampler_.reset();
    }

    heartbeat_.reset();
    if (sys.heartbeatPeriod != 0) {
        std::uint64_t expected = 0;
        for (const auto &t : traces_)
            expected += t->size();
        heartbeat_ = std::make_unique<obs::Heartbeat>(expected);
        system_->attachHeartbeat(heartbeat_.get());
    }

    trace_.reset();
    pipeviews_.clear();
    if (!opts.traceOutPath.empty()) {
        trace_ = std::make_unique<obs::ChromeTraceWriter>();
        MemSystem &mem = system_->mem();
        mem.bus().attachTrace(trace_.get());
        for (CpuId cpu = 0; cpu < mem.numCpus(); ++cpu) {
            mem.l1i(cpu).attachTrace(trace_.get());
            mem.l1d(cpu).attachTrace(trace_.get());
            mem.l2(cpu).attachTrace(trace_.get());
        }
    }
    if (!opts.traceOutPath.empty() || !opts.pipeviewOutPath.empty()) {
        for (CpuId cpu = 0; cpu < traces_.size(); ++cpu) {
            pipeviews_.push_back(std::make_unique<PipeviewRecorder>(
                kTracePipeviewCapacity));
            system_->core(cpu).attachPipeview(pipeviews_.back().get());
        }
    }
}

void
PerfModel::finishObservers(const SimResult &res)
{
    if (embedded_)
        return;
    const obs::ObsOptions &opts = obs::runObsOptions();
    if (trace_) {
        for (CpuId cpu = 0; cpu < pipeviews_.size(); ++cpu)
            trace_->addPipeview(static_cast<int>(cpu),
                                *pipeviews_[cpu]);
        trace_->writeFile(opts.traceOutPath);
    }
    if (!opts.pipeviewOutPath.empty() && !pipeviews_.empty()) {
        std::ofstream f(opts.pipeviewOutPath);
        if (!f) {
            warn("cannot write pipeview trace to '%s'",
                 opts.pipeviewOutPath.c_str());
        } else {
            for (CpuId cpu = 0; cpu < pipeviews_.size(); ++cpu)
                pipeviews_[cpu]->writeO3PipeView(f, cpu);
        }
    }
    if (!opts.statsJsonPath.empty()) {
        obs::writeStatsJson(system_->root(), opts.statsJsonPath,
                            &res);
    }
}

SimResult
PerfModel::run()
{
    // Any panic/fatal from here on dumps the dying system's state;
    // SIGINT/SIGTERM stop the run at a cycle boundary instead of
    // killing the process, so the observers below still flush. A
    // sweep-embedded run leaves both to the sweep runner, which owns
    // them once for the whole sweep.
    if (!embedded_) {
        check::installCrashReporting(
            obs::runObsOptions().crashReportPath);
    }
    std::unique_ptr<check::ScopedSignalGuard> signal_guard;
    if (!embedded_)
        signal_guard = std::make_unique<check::ScopedSignalGuard>();

    System &sys = prepare();
    SimResult res = sys.run();
    finishObservers(res);
    if (res.interrupted)
        warn("run interrupted; outputs reflect a partial run");
    return res;
}

System &
PerfModel::system()
{
    if (!system_)
        panic("PerfModel::system() before run()");
    return *system_;
}

SimResult
PerfModel::simulate(const MachineParams &machine,
                    const WorkloadProfile &profile,
                    std::size_t instrs_per_cpu)
{
    PerfModel model(machine);
    model.loadWorkload(profile, instrs_per_cpu);
    return model.run();
}

} // namespace s64v
