#include "model/perf_model.hh"

#include <sstream>

#include "check/crash_report.hh"
#include "check/signals.hh"
#include "ckpt/checkpoint.hh"
#include "common/file_util.hh"
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

void
applyRunOverrides(SystemParams &sys, const obs::ObsOptions &run)
{
    if (run.watchdogCycles != obs::ObsOptions::kUnset)
        sys.watchdogCycles = run.watchdogCycles;
    if (!run.skipAhead)
        sys.skipAhead = false;
    if (run.checkLevel)
        sys.checkLevel = *run.checkLevel;
}

PerfModel::PerfModel(MachineParams params, obs::ObsOptions run)
    : params_(std::move(params)), run_(std::move(run))
{
    traces_.resize(params_.sys.numCpus);
}

PerfModel::~PerfModel() = default;

void
PerfModel::loadWorkload(const WorkloadProfile &profile,
                        std::size_t instrs_per_cpu)
{
    // The --seed= policy the sweep runner applies too, so direct
    // loads and sweep points synthesize identical traces for
    // identical (run seed, profile) pairs.
    WorkloadProfile effective = profile;
    effective.seed = obs::effectiveWorkloadSeed(run_.seed, profile.seed);
    TraceGenerator gen(effective, params_.sys.numCpus);
    for (CpuId cpu = 0; cpu < params_.sys.numCpus; ++cpu) {
        traces_[cpu] = std::make_shared<const InstrTrace>(
            gen.generate(instrs_per_cpu, cpu));
    }
    params_.sys.warmupInstrs = standardWarmup(instrs_per_cpu);
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

    SystemParams sys = params_.sys;
    applyRunOverrides(sys, run_);
    if (!run_.checkpointOut.empty() && sys.checkpoint.path.empty()) {
        sys.checkpoint.atCycle = run_.checkpointAt;
        sys.checkpoint.path = run_.checkpointOut;
        sys.checkpoint.stopAfter = run_.checkpointStop;
    }

    system_ = std::make_unique<System>(sys, params_.name);
    for (CpuId cpu = 0; cpu < traces_.size(); ++cpu)
        system_->attachTrace(cpu, traces_[cpu]);
    if (!run_.restorePath.empty())
        ckpt::restoreSystemCheckpoint(*system_, run_.restorePath);
    attachObservers();
    return *system_;
}

void
PerfModel::attachObservers()
{
    sampler_.reset();
    if (!run_.sampleOutPath.empty()) {
        sampler_ = std::make_unique<obs::IntervalSampler>(
            system_->root(), run_.samplePeriod ? run_.samplePeriod
                                               : kDefaultSamplePeriod);
        if (sampler_->openFile(run_.sampleOutPath))
            system_->attachSampler(sampler_.get());
        else
            sampler_.reset();
    }

    heartbeat_.reset();
    if (run_.heartbeatPeriod != 0) {
        std::uint64_t expected = 0;
        for (const auto &t : traces_)
            expected += t->size();
        heartbeat_ = std::make_unique<obs::Heartbeat>(
            run_.heartbeatPeriod, expected);
        system_->attachHeartbeat(heartbeat_.get());
    }

    trace_.reset();
    pipeviews_.clear();
    if (!run_.traceOutPath.empty()) {
        trace_ = std::make_unique<obs::ChromeTraceWriter>(
            kTracePipeviewCapacity * traces_.size());
        MemSystem &mem = system_->mem();
        mem.bus().attachTrace(trace_.get());
        for (CpuId cpu = 0; cpu < mem.numCpus(); ++cpu) {
            mem.l1i(cpu).attachTrace(trace_.get());
            mem.l1d(cpu).attachTrace(trace_.get());
            mem.l2(cpu).attachTrace(trace_.get());
        }
    }
    if (!run_.traceOutPath.empty() || !run_.pipeviewOutPath.empty()) {
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
    if (trace_) {
        for (CpuId cpu = 0; cpu < pipeviews_.size(); ++cpu)
            trace_->addPipeview(static_cast<int>(cpu),
                                *pipeviews_[cpu]);
        trace_->writeFile(run_.traceOutPath);
    }
    if (!run_.pipeviewOutPath.empty() && !pipeviews_.empty()) {
        std::ostringstream out;
        for (CpuId cpu = 0; cpu < pipeviews_.size(); ++cpu)
            pipeviews_[cpu]->writeO3PipeView(out, cpu);
        std::string err;
        if (!atomicWriteFile(run_.pipeviewOutPath, out.str(), &err)) {
            warn("cannot write pipeview trace to '%s': %s",
                 run_.pipeviewOutPath.c_str(), err.c_str());
        }
    }
    if (!run_.statsJsonPath.empty()) {
        obs::writeStatsJson(system_->root(), run_.statsJsonPath, &res,
                            run_.seed);
    }
}

SimResult
PerfModel::run()
{
    // Until this returns, any panic/fatal dumps the dying system's
    // state; SIGINT/SIGTERM stop the run at a cycle boundary instead
    // of killing the process, so the observers below still flush.
    check::ScopedCrashReporting crash_guard(run_.crashReportPath,
                                            run_.statsJsonPath,
                                            run_.seed);
    check::ScopedSignalGuard signal_guard;

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
