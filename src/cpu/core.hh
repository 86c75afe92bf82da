/**
 * @file
 * The SPARC64 V out-of-order core model: 4-wide issue into a 64-entry
 * instruction window, four kinds of reservation stations, speculative
 * dispatch with data forwarding and cancel/replay (§3.1), dual
 * non-blocking operand access (§3.2), and 4-wide in-order commit.
 */

#ifndef S64V_CPU_CORE_HH
#define S64V_CPU_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/branch_pred.hh"
#include "cpu/core_params.hh"
#include "cpu/exec.hh"
#include "cpu/fetch.hh"
#include "cpu/lsq.hh"
#include "cpu/pipeview.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "cpu/rs.hh"
#include "mem/hierarchy.hh"
#include "obs/cpi_stack.hh"
#include "sim/clocked.hh"
#include "trace/trace.hh"

namespace s64v
{

/** Identifiers for the reservation stations. */
enum RsId : std::uint8_t
{
    kRsA = 0,  ///< address generation (10 entries, 2 dispatch).
    kRsBr = 1, ///< branches (10 entries, 1 dispatch).
    kRsE0 = 2, ///< integer station 0.
    kRsE1 = 3, ///< integer station 1 (absent in 1RS mode).
    kRsF0 = 4, ///< FP station 0.
    kRsF1 = 5, ///< FP station 1 (absent in 1RS mode).
    kNumRs = 6
};

/**
 * Execution units every core builds (Table 1), in this order; the
 * branch unit comes last. @{
 */
constexpr unsigned kNumAgenUnits = 2; ///< EAGA, EAGB.
constexpr unsigned kNumIntUnits = 2;  ///< EXA, EXB.
constexpr unsigned kNumFpUnits = 2;   ///< FLA, FLB (multiply-add).
/** @} */

/** A recently retired instruction (crash-report breadcrumbs). */
struct RecentCommit
{
    std::uint64_t seq = 0;
    Addr pc = 0;
    Cycle cycle = 0;
};

/** One processor core; a Clocked component of the cycle kernel. */
class Core : public Clocked
{
  public:
    Core(const CoreParams &params, CpuId cpu, MemSystem &mem,
         stats::Group *parent);

    /** Attach the trace this core replays. */
    void setTrace(VectorTraceSource *source);

    /**
     * Attach a pipeline recorder; committed instructions' stage
     * timestamps are pushed into it. Pass nullptr to detach.
     */
    void attachPipeview(PipeviewRecorder *recorder)
    {
        pipeview_ = recorder;
    }

    /** Advance the core by one cycle. */
    void tick(Cycle cycle) override;

    /** @return true when the trace is fully executed and drained. */
    bool done() const override;

    /**
     * Earliest cycle >= @p now at which this core could commit,
     * complete, dispatch, issue, fetch, or change a stall
     * classification — the skip-ahead kernel's quiescence contract
     * (see Clocked::nextWorkCycle). Conservative: returns @p now
     * whenever any stage could act, including speculative-dispatch
     * churn before a miss-cancel broadcast.
     */
    Cycle nextWorkCycle(Cycle now) const override;

    /**
     * Bulk-replay the per-cycle stat mutations of @p cycles elided
     * idle ticks starting at @p from: occupancy samples, commit-idle
     * and CPI-stack stall slots, and the issue-stage stall counter
     * the frozen front-of-queue instruction would have hit.
     */
    void elide(Cycle from, std::uint64_t cycles) override;

    /**
     * Monotone activity stamp for the kernel's quiescence
     * memoization (see CycleKernel::setSkipAhead): the sum of
     * the per-unit activity counters, bumped by every state
     * transition a tick makes. An unchanged stamp across ticks
     * proves the pipeline state is frozen, so a cached
     * nextWorkCycle() answer is still a valid lower bound.
     */
    std::uint64_t activityStamp() const override
    {
        return activity_ + lsq_->activity() + fetch_->activity();
    }

    std::uint64_t committed() const { return committed_.value(); }
    Cycle lastCommitCycle() const { return lastCommitCycle_; }

    /** Component access for experiments and tests. @{ */
    BranchPredictor &bpred() { return *bpred_; }
    FetchUnit &fetchUnit() { return *fetch_; }
    LoadStoreQueue &lsq() { return *lsq_; }
    /** Commit-slot cycle accounting (see obs/cpi_stack.hh). */
    const obs::CpiStack &cpiStack() const { return cpiStack_; }
    const CoreParams &params() const { return params_; }
    std::uint64_t replays() const { return replays_.value(); }
    std::uint64_t windowFullStalls() const
    {
        return windowFullStalls_.value();
    }
    /** @} */

    /** Self-check and crash-report access. @{ */
    std::size_t windowSize() const { return window_.size(); }
    std::size_t windowCapacity() const
    {
        return window_.capacity();
    }
    const ReservationStation *station(unsigned i) const
    {
        return i < rs_.size() ? rs_[i].get() : nullptr;
    }
    const RenameUnit &renameUnit() const { return *rename_; }
    const LoadStoreQueue &lsq() const { return *lsq_; }
    std::size_t pendingStoreCount() const
    {
        return pendingStores_.size();
    }
    /**
     * Plain counters mirroring issue/commit, never cleared by the
     * warmup stats reset — the invariant auditor's conservation
     * checks (issued == committed + in-window) depend on them
     * spanning the whole run.
     */
    std::uint64_t rawIssued() const { return rawIssued_; }
    std::uint64_t rawCommitted() const { return rawCommitted_; }
    /** Last retired instructions, oldest first. */
    std::vector<RecentCommit> recentCommits() const;
    /** @} */

    /**
     * Fault injection (--inject-fault=stall:<cycle>): from @p cycle
     * on, the commit stage retires nothing, so the whole window backs
     * up — the watchdog must detect and diagnose this.
     */
    void injectCommitStall(Cycle cycle) { commitStallAt_ = cycle; }

    /**
     * Serialize the complete microarchitectural state of this core:
     * window, stations, execute pipelines, LSQ, fetch pipeline, BHT,
     * rename pools, scoreboard and commit bookkeeping. Stats travel
     * with the stats tree; the injected-fault configuration is
     * re-armed by construction, not restored.
     */
    void saveState(ckpt::SnapshotWriter &w) const;
    void restoreState(ckpt::SnapshotReader &r);

  private:
    /**
     * Predicted consumer-usable cycle of @p prod_seq's result as the
     * reservation stations see it at cycle @p now (before a load's
     * miss-cancel broadcast they still believe the hit schedule).
     */
    Cycle predReadyOf(std::uint64_t prod_seq, Cycle now) const;
    /** Confirmed consumer-usable cycle (kCycleNever if unknown). */
    Cycle actualReadyOf(std::uint64_t prod_seq) const;

    bool sourcesDispatchable(const WindowEntry &e, Cycle now,
                             Cycle exec_start) const;
    bool sourcesValid(const WindowEntry &e, Cycle exec_start) const;

    /**
     * The single dominant reason no instruction can retire at
     * @p cycle, charged to every unused commit slot. Priority within
     * a blocked head follows the §4.2 differential ladder (L2 miss,
     * TLB, L1D), then serialization, then structural backpressure.
     */
    obs::CommitSlot classifyCommitStall(Cycle cycle) const;

    void commitStage(Cycle cycle);
    void loadCompletionStage(Cycle cycle);
    void pendingStoreStage(Cycle cycle);
    void executeStage(Cycle cycle);
    void dispatchStage(Cycle cycle);
    void issueStage(Cycle cycle);

    /**
     * What blocks the front of the fetch queue from issuing: the
     * issue stage's gate sequence, asked once per slot by
     * issueStage() and by the skip-ahead path to classify and
     * bulk-replay issue stalls. Side-effect free: it does not
     * advance the station-deal toggles. Always inlined: GCC 12 at
     * -O2 kept it out of line, and that call once per issue slot
     * cost 2-3 % of a SPECint2000 run on x86-64.
     */
    enum class IssueBlock : std::uint8_t
    {
        None,        ///< the front instruction can issue.
        FetchEmpty,  ///< nothing fetched.
        WindowFull,
        Serialize,   ///< precise special-instruction drain.
        Rename,
        LqFull,
        SqFull,
        StationFull, ///< every candidate reservation station full.
    };
    [[gnu::always_inline]] inline IssueBlock issueBlock() const;

    /** Charge @p cycles cycles of @p block to its stall counter. */
    void chargeIssueStalls(IssueBlock block, std::uint64_t cycles);

    /**
     * Lower bound (exact while no cycle in between is visited) on the
     * first cycle >= @p now a Waiting entry could be selected for
     * dispatch, from notBefore and its gating sources' schedules.
     */
    Cycle dispatchCandidate(const WindowEntry &e, Cycle now) const;

    /**
     * Earliest cycle >= @p from at which producer @p p stops gating a
     * consumer's dispatch, given the speculative pred/actual schedule
     * switch at missKnownAt (state frozen between visited cycles).
     */
    Cycle sourceFlipCycle(const WindowEntry &p, Cycle from,
                          unsigned d2e) const;

    /** Execute-stage action once operands are validated. */
    void performExec(WindowEntry &e, Cycle exec_start, ExecUnit &unit);
    void replay(WindowEntry &e, Cycle now);

    RsId stationFor(const TraceRecord &rec);
    unsigned forwardDelay() const
    {
        return params_.dataForwarding ? 1 : 3;
    }

    CoreParams params_;
    CpuId cpu_;
    MemSystem &mem_;

    stats::Group statGroup_;
    obs::CpiStack cpiStack_;
    std::unique_ptr<BranchPredictor> bpred_;
    std::unique_ptr<FetchUnit> fetch_;
    std::unique_ptr<LoadStoreQueue> lsq_;
    std::unique_ptr<RenameUnit> rename_;
    InstrWindow window_;
    std::vector<std::unique_ptr<ReservationStation>> rs_;
    std::vector<ExecUnit> units_; ///< 0-1 agen, 2-3 int, 4-5 fp, 6 br.

    std::array<std::uint64_t, kNumIntRegs + kNumFpRegs> lastProducer_{};
    std::vector<std::uint64_t> pendingStores_; ///< waiting for data.
    unsigned rseToggle_ = 0;
    unsigned rsfToggle_ = 0;
    Cycle lastCommitCycle_ = 0;
    PipeviewRecorder *pipeview_ = nullptr;

    std::uint64_t rawIssued_ = 0;    ///< see rawIssued().
    std::uint64_t rawCommitted_ = 0; ///< see rawCommitted().
    /**
     * Instruction state transitions made by the current tick; bumped
     * by every stage that moves an instruction. Host-side scheduling
     * hint only (never serialized, never a stat): when the last tick
     * transitioned anything, nextWorkCycle() reports "busy now"
     * without the full window scan — a conservative answer that can
     * only shrink a skip, never stretch one.
     */
    std::uint64_t activity_ = 0;
    bool workedLastTick_ = true; ///< conservative until first tick.
    Cycle commitStallAt_ = kCycleNever; ///< see injectCommitStall().
    static constexpr unsigned kRecentCommits = 16;
    std::array<RecentCommit, kRecentCommits> recent_{};
    unsigned recentNext_ = 0; ///< next write slot in recent_.

    std::vector<std::uint64_t> selectScratch_;
    std::vector<PendingExec> dueScratch_;

    stats::Scalar &committed_;
    stats::Scalar &committedLoads_;
    stats::Scalar &committedStores_;
    stats::Scalar &committedBranches_;
    stats::Scalar &replays_;
    stats::Scalar &windowFullStalls_;
    stats::Scalar &fetchEmptyStalls_;
    stats::Scalar &serializeStalls_;
    stats::Scalar &commitIdleCycles_;
    stats::Histogram &windowOccupancy_;
    stats::Histogram &fetchToCommit_;
};

} // namespace s64v

#endif // S64V_CPU_CORE_HH
