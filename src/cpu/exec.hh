/**
 * @file
 * Execution units. Each unit is a pipelined resource fed by exactly
 * one reservation station (the SPARC64 V "2RS" structure) or shared
 * by a unified station ("1RS"). Unpipelined operations (divides)
 * block the unit via busyUntil.
 */

#ifndef S64V_CPU_EXEC_HH
#define S64V_CPU_EXEC_HH

#include <deque>
#include <string>
#include <vector>

#include "common/types.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** A dispatched operation travelling toward its execute stage. */
struct PendingExec
{
    std::uint64_t seq = 0;
    Cycle execStart = 0;
};

/**
 * One execution pipeline (EXA/EXB, FLA/FLB, EAGA/EAGB). Accepts one
 * dispatch per cycle; the core validates operands when the operation
 * reaches its execute stage.
 */
class ExecUnit
{
  public:
    explicit ExecUnit(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Can an op dispatched now reach execute at @p exec_start? */
    bool
    available(Cycle exec_start) const
    {
        return busyUntil_ <= exec_start;
    }

    /** Enqueue a dispatched operation. */
    void
    push(std::uint64_t seq, Cycle exec_start)
    {
        pending_.push_back(PendingExec{seq, exec_start});
    }

    /** Move operations whose execute stage is due into @p out. */
    void
    collectDue(Cycle cycle, std::vector<PendingExec> &out)
    {
        while (!pending_.empty() &&
               pending_.front().execStart <= cycle) {
            out.push_back(pending_.front());
            pending_.pop_front();
        }
    }

    /** Block the unit (unpipelined op occupying it). */
    void
    occupyUntil(Cycle cycle)
    {
        if (cycle > busyUntil_)
            busyUntil_ = cycle;
    }

    Cycle busyUntil() const { return busyUntil_; }
    bool idle() const { return pending_.empty(); }

    /**
     * Execute-stage cycle of the oldest in-flight operation, or
     * kCycleNever when the pipeline is empty (skip-ahead bound).
     */
    Cycle
    nextExecStart() const
    {
        return pending_.empty() ? kCycleNever
                                : pending_.front().execStart;
    }

    /** Write or read mutable state (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    std::string name_;
    std::deque<PendingExec> pending_;
    Cycle busyUntil_ = 0;
};

} // namespace s64v

#endif // S64V_CPU_EXEC_HH
