#include "sim/system.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "check/crash_report.hh"
#include "check/fault_inject.hh"
#include "check/signals.hh"
#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "obs/heartbeat.hh"
#include "obs/sampler.hh"

namespace s64v
{

namespace
{

/**
 * First firing cycle of a period-@p period probe in a run starting at
 * @p start: the smallest positive multiple of the period that is not
 * in the past, so a resumed run's samples land on the same absolute
 * cycles as the uninterrupted run's.
 */
Cycle
phaseStart(std::uint64_t period, Cycle start)
{
    if (start == 0)
        return period;
    const Cycle aligned = ((start + period - 1) / period) * period;
    return std::max<Cycle>(aligned, period);
}

} // namespace

System::System(const SystemParams &params, const std::string &name)
    : params_(params), root_(name)
{
    if (params_.numCpus == 0)
        fatal("system needs at least one CPU");
    mem_ = std::make_unique<MemSystem>(params_.mem, params_.numCpus,
                                       &root_);
    traces_.resize(params_.numCpus);
    sources_.resize(params_.numCpus);
    for (unsigned i = 0; i < params_.numCpus; ++i) {
        cores_.push_back(std::make_unique<Core>(params_.core, i,
                                                *mem_, &root_));
    }

    // Arm whatever fault the process-wide plan asks for (see
    // check/fault_inject.hh; KillPoint is a probe armed by run()).
    const check::FaultPlan &fault = check::activeFaultPlan();
    if (fault.active(check::FaultKind::CommitStall)) {
        for (auto &core : cores_)
            core->injectCommitStall(fault.at);
    } else if (fault.active(check::FaultKind::LostGrant)) {
        mem_->bus().injectLostGrant(fault.at);
    } else if (fault.active(check::FaultKind::LostInvalidate)) {
        mem_->coherence().injectLostInvalidate(fault.at);
    }
}

System::~System()
{
    if (check::crashSystem() == this)
        check::setCrashSystem(nullptr);
}

void
System::attachTrace(CpuId cpu, std::shared_ptr<const InstrTrace> trace)
{
    if (cpu >= cores_.size())
        fatal("attachTrace: cpu %u out of range", cpu);
    if (!trace)
        fatal("attachTrace: cpu %u given a null trace", cpu);
    traces_[cpu] = std::move(trace);
    sources_[cpu] =
        std::make_unique<VectorTraceSource>(*traces_[cpu]);
    cores_[cpu]->setTrace(sources_[cpu].get());
}

SimResult
System::run()
{
    for (unsigned i = 0; i < cores_.size(); ++i) {
        if (!sources_[i])
            fatal("cpu %u has no trace attached", i);
    }

    SimResult res;
    const Cycle start = cont_.nextCycle;
    bool warm_done = cont_.warmDone || params_.warmupInstrs == 0;
    res.warmupEndCycle = cont_.warmupEndCycle;

    // Self-check machinery: crash reports read live state through the
    // registration; the watchdog distinguishes long-latency stalls
    // from deadlock via the earliest in-flight fill; the auditor
    // cross-checks structural invariants.
    check::setCrashSystem(this);
    check::InvariantAuditor auditor(*this);
    std::unique_ptr<check::Watchdog> watchdog;
    if (params_.watchdogCycles != 0) {
        watchdog =
            std::make_unique<check::Watchdog>(params_.watchdogCycles);
        watchdog->setEventProbe(
            [this](Cycle now) { return mem_->nextPendingFill(now); });
    }

    // Assemble the cycle kernel: cores tick every cycle; everything
    // else is a probe naming the next cycle it runs at, registered
    // in the order the checks must run (watchdog and auditor see the
    // machine before the warm-up reset; the sampler reads deltas
    // after it).
    kernel_ = std::make_unique<CycleKernel>();
    hitCycleCap_ = false;
    kernel_->setSkipAhead(params_.skipAhead);
    if (profiler_)
        kernel_->attachProfiler(profiler_);
    for (auto &core : cores_) {
        // Stage gating rides with the fast engine; the plain loop
        // calls every stage every cycle and stays the reference.
        core->setStageGating(params_.skipAhead);
        kernel_->attach(core.get());
    }
    if (watchdog) {
        // Checked only at its deadline: commits happen only on ticks,
        // so the cores' raw commit counts and last commit cycles tell
        // the watchdog everything a check on every cycle would see,
        // and it fires on exactly the cycle that one would (see
        // check::Watchdog). The first check runs at the start cycle,
        // where a restored run's progress is dated.
        kernel_->attachProbe(start, [&](Cycle cycle) {
            Cycle last_commit = start;
            for (const auto &core : cores_) {
                last_commit =
                    std::max(last_commit, core->lastCommitCycle());
            }
            if (watchdog->check(cycle, totalRawCommitted(),
                                last_commit))
                panic("%s", watchdog->diagnosis().c_str());
            return watchdog->deadline();
        });
    }
    if (params_.checkLevel == check::CheckLevel::PerCycle) {
        kernel_->attachProbe(start, [&](Cycle cycle) {
            auditor.checkCycle(cycle);
            return cycle + 1;
        });
    }
    if (!warm_done) {
        // A core retires at most commitWidth instructions a cycle, so
        // none can reach the threshold before the cycle this probe
        // names next: the reset fires on exactly the cycle the last
        // core crosses it. A zero width commits nothing, so any bound
        // holds.
        const std::uint64_t width =
            std::max(1u, params_.core.commitWidth);
        kernel_->attachProbe(start, [&, width](Cycle cycle) {
            std::uint64_t short_by = 0;
            for (const auto &core : cores_) {
                const std::uint64_t n = core->committed();
                if (n >= params_.warmupInstrs)
                    continue;
                if (core->done())
                    return kCycleNever; // never reached; detach.
                short_by = std::max(short_by, params_.warmupInstrs - n);
            }
            if (short_by)
                return cycle + (short_by + width - 1) / width;
            root_.resetAll();
            res.warmupEndCycle = cycle;
            cont_.warmDone = true;
            cont_.warmupEndCycle = cycle;
            warm_done = true;
            return kCycleNever; // measurement window open; detach.
        });
    }
    // The observers measure from where this run starts: a restored
    // run's first cycle follows the one its checkpoint was cut at,
    // with that cut's commits already counted.
    if (sampler_) {
        sampler_->setBaseline(start ? start - 1 : 0, totalRawCommitted());
        kernel_->attachProbe(
            phaseStart(sampler_->period(), start), [this](Cycle cycle) {
                sampler_->tick(cycle, totalRawCommitted());
                return cycle + sampler_->period();
            });
    }
    if (heartbeat_) {
        heartbeat_->setBaseline(totalRawCommitted());
        kernel_->attachProbe(
            phaseStart(heartbeat_->period(), start), [this](Cycle cycle) {
                heartbeat_->beat(cycle, totalRawCommitted());
                return cycle + heartbeat_->period();
            });
    }
    // Injected process death (--inject-fault=kill-point:<cycle>):
    // vanish without flushing anything, the way an OOM kill would.
    // Registered before the checkpoint probe so a checkpoint at the
    // same cycle never gets written first.
    const check::FaultPlan &fault = check::activeFaultPlan();
    if (fault.active(check::FaultKind::KillPoint) &&
        fault.at >= start) {
        kernel_->attachProbe(fault.at, [](Cycle) -> Cycle {
            std::_Exit(check::kInjectedFaultExitCode);
        });
    }
    // Checkpoint probe goes last: every other probe of the trigger
    // cycle (warm-up reset, sampler) has fired by the time the
    // snapshot is cut, so the restored run replays none of them.
    if (!params_.checkpoint.path.empty() &&
        params_.checkpoint.atCycle >= start) {
        kernel_->attachProbe(
            params_.checkpoint.atCycle, [&](Cycle cycle) {
                cont_.nextCycle = cycle + 1;
                ckpt::writeSystemCheckpoint(*this,
                                            params_.checkpoint.path);
                inform("checkpoint written to '%s' at cycle %llu",
                       params_.checkpoint.path.c_str(),
                       static_cast<unsigned long long>(cycle));
                if (params_.checkpoint.stopAfter)
                    kernel_->requestStop();
                return kCycleNever;
            });
    }

    const CycleKernel::Outcome out =
        kernel_->run(params_.maxCycles, start);
    const Cycle cycle = out.cycle;
    currentCycle_ = cycle;
    res.elidedCycles = kernel_->elidedCycles();
    kernel_.reset();

    switch (out.stop) {
      case CycleKernel::Stop::Drained:
        break;
      case CycleKernel::Stop::Requested:
        res.stoppedAtCheckpoint = true;
        break;
      case CycleKernel::Stop::Interrupted:
        warn("stop requested (signal %d); ending the run at cycle "
             "%llu", check::stopSignal(),
             static_cast<unsigned long long>(cycle));
        res.interrupted = true;
        break;
      case CycleKernel::Stop::CycleCap:
        warn("simulation hit the %llu-cycle cap; likely a model "
             "deadlock",
             static_cast<unsigned long long>(params_.maxCycles));
        res.hitCycleCap = true;
        hitCycleCap_ = true;
        break;
    }

    if (params_.checkLevel != check::CheckLevel::Off) {
        if (res.hitCycleCap || res.interrupted ||
            res.stoppedAtCheckpoint) {
            // The machine did not drain; audit only what must hold at
            // any cycle boundary.
            auditor.checkCycle(cycle);
        } else {
            auditor.checkEndOfRun(cycle);
        }
    }

    // A run stopped at a checkpoint has not ended: its restore may
    // still reach the threshold.
    if (!warm_done && !res.stoppedAtCheckpoint) {
        warn("warm-up threshold %llu never reached; measuring the "
             "whole run",
             static_cast<unsigned long long>(params_.warmupInstrs));
    }

    if (sampler_)
        sampler_->finish(cycle, totalRawCommitted());

    for (const auto &core : cores_) {
        CoreResult cr;
        cr.measured = core->committed(); // stat: reset at warm-up end.
        cr.committed = core->rawCommitted();
        cr.lastCommitCycle = core->lastCommitCycle();
        const Cycle window = cr.lastCommitCycle > res.warmupEndCycle
            ? cr.lastCommitCycle - res.warmupEndCycle
            : 0;
        cr.ipc = window
            ? static_cast<double>(cr.measured) /
              static_cast<double>(window)
            : 0.0;
        res.instructions += cr.committed;
        res.measured += cr.measured;
        res.cycles = std::max(res.cycles, window);
        res.cores.push_back(cr);
    }
    res.ipc = res.cycles
        ? static_cast<double>(res.measured) /
          static_cast<double>(res.cycles)
        : 0.0;
    return res;
}

std::string
diffSim(const SimResult &a, const SimResult &b)
{
    char buf[256];
    const auto differ = [&](const char *what, std::uint64_t x,
                            std::uint64_t y) {
        std::snprintf(buf, sizeof buf, "%s %llu != %llu", what,
                      static_cast<unsigned long long>(x),
                      static_cast<unsigned long long>(y));
        return std::string(buf);
    };
    if (a.cycles != b.cycles)
        return differ("cycles", a.cycles, b.cycles);
    if (a.instructions != b.instructions)
        return differ("instructions", a.instructions, b.instructions);
    if (a.measured != b.measured)
        return differ("measured", a.measured, b.measured);
    if (a.ipc != b.ipc) {
        std::snprintf(buf, sizeof buf, "ipc %.17g != %.17g", a.ipc,
                      b.ipc);
        return buf;
    }
    if (a.warmupEndCycle != b.warmupEndCycle)
        return differ("warm-up end cycle", a.warmupEndCycle,
                      b.warmupEndCycle);
    if (a.hitCycleCap != b.hitCycleCap)
        return differ("hit cycle cap", a.hitCycleCap, b.hitCycleCap);
    if (a.cores.size() != b.cores.size())
        return differ("cores", a.cores.size(), b.cores.size());
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        const CoreResult &x = a.cores[c];
        const CoreResult &y = b.cores[c];
        if (x.committed != y.committed || x.measured != y.measured ||
            x.lastCommitCycle != y.lastCommitCycle || x.ipc != y.ipc) {
            std::snprintf(
                buf, sizeof buf,
                "core %zu: committed %llu/%llu, measured %llu/%llu, "
                "last commit %llu/%llu, ipc %.17g/%.17g",
                c, static_cast<unsigned long long>(x.committed),
                static_cast<unsigned long long>(y.committed),
                static_cast<unsigned long long>(x.measured),
                static_cast<unsigned long long>(y.measured),
                static_cast<unsigned long long>(x.lastCommitCycle),
                static_cast<unsigned long long>(y.lastCommitCycle),
                x.ipc, y.ipc);
            return buf;
        }
    }
    return "";
}

void
System::settleStats()
{
    if (kernel_) {
        kernel_->settle();
        return;
    }
    for (auto &core : cores_)
        core->settle();
}

std::uint64_t
System::totalRawCommitted() const
{
    // The warm-up stats reset must not read as a commit drought to
    // the watchdog, nor rewind the heartbeat's and the sampler's
    // counts, so they watch the raw counters, which are never
    // cleared.
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->rawCommitted();
    return total;
}

} // namespace s64v
