/**
 * @file
 * The cycle kernel: the one loop that advances a machine. Components
 * that do work every cycle implement Clocked; observers and checkers
 * register probes, each naming the next cycle it runs at. The kernel
 * owns cycle bookkeeping, the stop conditions (drain, cycle cap,
 * stop request), and the dispatch order, so System::run() and any
 * future assembly share a single, well-tested loop instead of each
 * special-casing its observers with per-cycle modulo checks.
 */

#ifndef S64V_SIM_CLOCKED_HH
#define S64V_SIM_CLOCKED_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace s64v
{

/**
 * A component advanced once per simulated cycle. Cores are the
 * canonical implementation; anything that must see every cycle (a
 * DMA engine, an interconnect scheduler) attaches the same way.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one cycle. Only called while !done(). */
    virtual void tick(Cycle cycle) = 0;

    /**
     * @return true when this component has no further work. The
     * kernel stops once every attached component is done. Like
     * nextWorkCycle(), nothing outside this component's own tick()
     * may change the answer.
     */
    virtual bool done() const { return false; }

    /**
     * Earliest cycle >= @p now at which ticking this component could
     * change machine state or produce a stat mutation that differs
     * from an idle repeat of cycle @p now. The skip-ahead kernel
     * advances directly to the minimum over all components (bounded
     * by the probes' named cycles) and does not tick the component
     * in between; the next settle() accounts those idle cycles.
     * kCycleNever means fully quiescent until an external event. The
     * default — always busy — keeps a component that does not
     * override it bit-exact under skip-ahead.
     *
     * The contract the fast engine rests on: nothing outside this
     * component's own tick() may move this answer or done()'s, so
     * the kernel asks once after each tick and holds the answer until
     * the next one (see CycleKernel::setSkipAhead).
     */
    virtual Cycle nextWorkCycle(Cycle now) const { return now; }

    /**
     * Bring every stat up to date through @p through, one past the
     * last cycle this component is accounted for. The kernel names
     * it, on both engines, before anything reads stats (see
     * CycleKernel::settle): every cycle before it was either ticked
     * or proven idle by nextWorkCycle(), and the component must
     * account each untouched cycle exactly as an idle repeat of its
     * last tick. A component that accrues per-cycle stats as
     * run-length spans (Core) closes them here. A done() component
     * keeps its last tick: its stats end there, whatever @p through
     * says.
     */
    virtual void settle(Cycle through) { (void)through; }
};

/**
 * Host-time profiling hook, implemented by the simulator benchmark's
 * traced run (simbench/traced.cc). When attached to a CycleKernel,
 * visited cycles where sampleCycle() returns true have each component
 * tick and the probe pass wrapped in wall-clock timers — sampled
 * 1-in-N so the instrumented loop stays within a few percent of the
 * plain one.
 */
class TickProfiler
{
  public:
    virtual ~TickProfiler() = default;

    /**
     * Called once per visited cycle, before its ticks. @return true
     * when @p cycle's work should be timed.
     */
    virtual bool sampleCycle(Cycle cycle) = 0;

    /** One component's tick on a sampled cycle took @p ns. */
    virtual void recordTick(const Clocked &component,
                            std::uint64_t ns) = 0;

    /** The whole probe pass on a sampled cycle took @p ns. */
    virtual void recordProbes(std::uint64_t ns) = 0;

    /** The skip-ahead kernel elided @p cycles idle cycles. */
    virtual void recordElided(std::uint64_t cycles) = 0;
};

/**
 * Probe callback: runs after every component has ticked and settled
 * at the cycle it last named and returns the next cycle it must run
 * at, strictly later; kCycleNever detaches it.
 */
using ProbeFn = std::function<Cycle(Cycle)>;

/**
 * The cycle loop. Attach components and probes, then run(). The
 * probes due at a cycle run in registration order, which the kernel
 * guarantees, so ordering-sensitive observers (a warm-up stats reset
 * before a sampler reads deltas) stay deterministic.
 */
class CycleKernel
{
  public:
    /** Attach a per-cycle component (not owned). */
    void attach(Clocked *component);

    /**
     * Attach a profiler timing component ticks and probe passes on
     * its sampled cycles (not owned; nullptr detaches), as
     * simbench's traced run does. Off by default: the unprofiled
     * loop pays one pointer test per cycle.
     */
    void attachProfiler(TickProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /**
     * Register a probe first run at cycle @p first, then at whatever
     * cycle its last run named. Both engines visit every named cycle,
     * so the probe bounds the skip. A disabled observer is simply
     * never registered; the loop pays nothing for it. A probe that
     * names a cycle at or before the one it ran at is a panic.
     */
    void attachProbe(Cycle first, ProbeFn fn);

    /**
     * Enable skip-ahead scheduling, the fast engine: advance directly
     * to min(component next work, next probe cycle, cycle cap); the
     * cycles skipped are accounted by each component's next settle().
     * Nothing else bounds the skip: the memory system is lazily
     * timed, so its state changes only inside a core's tick, and a
     * completion can move a stat only when a core's stage reads it,
     * which that core's nextWorkCycle() already names. Three
     * refinements ride along:
     *
     * - Quiescence memoization: an answer holds until the
     *   component's next tick (the Clocked::nextWorkCycle contract),
     *   so skipTarget() asks done() and nextWorkCycle() only of the
     *   components ticked since its last pass and reuses every other
     *   component's cached answers.
     * - Idle components are not ticked: on a visited cycle, a
     *   component whose cached answer lies strictly in the future
     *   would only repeat an idle tick, so the kernel skips it (see
     *   provenIdle()); nothing is owed, since settle() accounts the
     *   cycle. This is what makes SMP runs cheap when one core pins
     *   the clock while the others stall.
     * - One query per visit: nothing runs between skipTarget() and
     *   the next visit, so that visit's tick pass reuses the done()
     *   answers skipTarget() stored in the memo.
     *
     * Off by default: the plain per-cycle loop is the reference
     * semantics.
     */
    void setSkipAhead(bool on) { skipAhead_ = on; }

    /** Total cycles elided by skip-ahead in the last/current run(). */
    std::uint64_t elidedCycles() const { return elidedCycles_; }

    /**
     * Settle every component's stats (Clocked::settle) through the
     * cycle it is accounted through: one past the visited cycle for
     * the components the current tick pass has reached (every one
     * once the pass is over, so probes and loop exits see the whole
     * visit), the visited cycle itself for the rest (a panic inside
     * a tick leaves the pass half done), and the cap at a cycle-cap
     * exit. The kernel settles, on both engines, once before the
     * probes due at a cycle run and on every loop exit; call this
     * before reading a live machine's stats from outside the loop
     * (the crash hook's salvage).
     */
    void settle()
    {
        for (std::size_t i = 0; i < clocked_.size(); ++i)
            clocked_[i]->settle(currentCycle_ + (i < visited_ ? 1 : 0));
    }

    /** Why run() returned. */
    enum class Stop
    {
        Drained,     ///< every Clocked component reported done().
        CycleCap,    ///< maxCycles reached (likely a model deadlock).
        Interrupted, ///< check::stopRequested() (SIGINT/SIGTERM).
        Requested,   ///< a probe called requestStop() (checkpoint).
    };

    struct Outcome
    {
        Stop stop = Stop::Drained;
        Cycle cycle = 0; ///< cycle the loop stopped at.
    };

    /**
     * Run until every component drains, a stop is requested, or
     * @p max_cycles is reached. Probes still fire on the final
     * cycle before the loop exits. @p start_cycle is the first cycle
     * simulated — nonzero when resuming from a checkpoint (probe
     * `first` cycles must already be phase-aligned by the caller).
     */
    Outcome run(std::uint64_t max_cycles, Cycle start_cycle = 0);

    /**
     * Ask the loop to stop after the current cycle's probes finish.
     * Callable only from inside a probe or tick; used by the
     * checkpoint probe's --checkpoint-stop mode.
     */
    void requestStop() { stopRequested_ = true; }

    /** Cycle the loop is at (live while running; crash reports). */
    Cycle currentCycle() const { return currentCycle_; }

  private:
    /** A probe and the cycle it runs at next. */
    struct ProbeEntry
    {
        Cycle next;
        ProbeFn fn;
    };

    /**
     * Earliest cycle in [@p next, @p max_cycles] the kernel must
     * visit: min over component work and the probes' named cycles.
     * Non-const: refreshes the memo entry (done, answer) of every
     * component ticked since the last pass; an untouched one keeps
     * its entry unasked, since only its own tick() changes those
     * answers.
     */
    Cycle skipTarget(Cycle next, std::uint64_t max_cycles);

    /**
     * Is component @p i's tick at @p cycle an idle repeat? Only right
     * after skipTarget() brought the memo up to date, when the cached
     * next-work cycle lies strictly beyond @p cycle. A component that
     * keeps the default nextWorkCycle() never is.
     */
    bool provenIdle(std::size_t i, Cycle cycle) const
    {
        return memo_[i].answer > cycle;
    }

    /**
     * One component's done() and nextWorkCycle() answers, cached
     * from its last tick until its next (quiescence memoization).
     */
    struct MemoEntry
    {
        Cycle answer = 0;
        bool live = false; ///< !done(); answer valid only then.
        /** Ticked since the last skipTarget() pass (or never asked):
         *  only then can done() or the answer differ. */
        bool ticked = true;
    };

    std::vector<Clocked *> clocked_;
    std::vector<MemoEntry> memo_; ///< parallel to clocked_.
    std::vector<ProbeEntry> probes_;
    TickProfiler *profiler_ = nullptr;
    Cycle currentCycle_ = 0;
    /** Components the current tick pass has reached (see settle()). */
    std::size_t visited_ = 0;
    std::uint64_t elidedCycles_ = 0;
    bool stopRequested_ = false;
    bool skipAhead_ = false;
};

} // namespace s64v

#endif // S64V_SIM_CLOCKED_HH
