#include "sim/clocked.hh"

#include <algorithm>
#include <chrono>

#include "check/signals.hh"
#include "common/logging.hh"

namespace s64v
{

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
CycleKernel::attach(Clocked *component)
{
    if (!component)
        panic("CycleKernel::attach(nullptr)");
    clocked_.push_back(component);
}

void
CycleKernel::attachProbe(Cycle first, ProbeFn fn)
{
    if (!fn)
        panic("CycleKernel probe needs a callback");
    probes_.push_back(ProbeEntry{first, std::move(fn)});
}

Cycle
CycleKernel::skipTarget(Cycle next, std::uint64_t max_cycles)
{
    Cycle target = max_cycles;
    bool any_alive = false;
    for (std::size_t i = 0; i < clocked_.size(); ++i) {
        MemoEntry &m = memo_[i];
        // Only a tick moves the answers (see Clocked::nextWorkCycle):
        // a component not ticked since the last pass (proven idle or
        // done) keeps its entry unasked. No early-out even once the
        // skip is pinned: the entry doubles as the next visit's done()
        // answer and idle proof (provenIdle), so every ticked
        // component must be asked.
        if (m.ticked) {
            m.ticked = false;
            m.live = !clocked_[i]->done();
            if (m.live)
                m.answer = clocked_[i]->nextWorkCycle(next);
        }
        if (!m.live)
            continue;
        any_alive = true;
        const Cycle w = m.answer < next ? next : m.answer;
        if (w < target)
            target = w;
    }
    // Every component drained: the very next cycle ends the run as
    // Drained, exactly where the per-cycle loop would end it.
    if (!any_alive)
        return next;
    if (target <= next)
        return next;
    for (const ProbeEntry &p : probes_) {
        if (target <= next)
            return next;
        Cycle h = p.next;
        if (h < next)
            h = next;
        if (h < target)
            target = h;
    }
    return target;
}

CycleKernel::Outcome
CycleKernel::run(std::uint64_t max_cycles, Cycle start_cycle)
{
    stopRequested_ = false;
    elidedCycles_ = 0;
    memo_.assign(clocked_.size(), MemoEntry{});
    // Set once skipTarget() has refreshed every memo entry; cleared
    // by the next tick pass. Never set on the plain loop.
    bool memo_fresh = false;
    Cycle cycle = start_cycle;
    for (;;) {
        currentCycle_ = cycle;
        bool all_done = true;
        const bool timed = profiler_ && profiler_->sampleCycle(cycle);
        for (std::size_t i = 0; i < clocked_.size(); ++i) {
            visited_ = i + 1;
            Clocked *c = clocked_[i];
            if (memo_fresh ? !memo_[i].live : c->done())
                continue;
            all_done = false;
            if (memo_fresh && provenIdle(i, cycle))
                continue;
            memo_[i].ticked = true;
            if (timed) {
                const std::uint64_t t0 = nowNs();
                c->tick(cycle);
                profiler_->recordTick(*c, nowNs() - t0);
            } else {
                c->tick(cycle);
            }
        }
        memo_fresh = false;
        // Probes read (sampler), reset (warm-up), audit or serialize
        // (checkpoint) stats, so every component settles once before
        // the first one due runs: open stat spans close, on both
        // engines.
        const auto due = [cycle](const ProbeEntry &p) {
            return p.next == cycle;
        };
        if (std::any_of(probes_.begin(), probes_.end(), due))
            settle();
        const std::uint64_t p0 = timed ? nowNs() : 0;
        for (ProbeEntry &p : probes_) {
            if (!due(p))
                continue;
            p.next = p.fn(cycle);
            if (p.next <= cycle) {
                panic("probe run at cycle %llu named cycle %llu; the "
                      "next must be later",
                      static_cast<unsigned long long>(cycle),
                      static_cast<unsigned long long>(p.next));
            }
        }
        if (timed)
            profiler_->recordProbes(nowNs() - p0);
        if (all_done) {
            settle();
            return {Stop::Drained, cycle};
        }
        if (stopRequested_) {
            settle();
            return {Stop::Requested, cycle};
        }
        if (check::stopRequested()) {
            settle();
            return {Stop::Interrupted, cycle};
        }
        Cycle next = cycle + 1;
        if (skipAhead_ && next < max_cycles) {
            const Cycle target = skipTarget(next, max_cycles);
            memo_fresh = true;
            if (target > next) {
                const std::uint64_t n = target - next;
                elidedCycles_ += n;
                if (profiler_)
                    profiler_->recordElided(n);
                next = target;
            }
        }
        if (next >= max_cycles) {
            // Every live component is accounted through the cap.
            currentCycle_ = next;
            visited_ = 0;
            settle();
            return {Stop::CycleCap, next};
        }
        cycle = next;
    }
}

} // namespace s64v
