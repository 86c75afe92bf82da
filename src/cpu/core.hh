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
#include <utility>
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

    /**
     * Advance the core by one cycle. With stage gating on (the fast
     * engine, see setStageGating()) a stage is called only at or
     * after its wake cycle: the cycle at which it next has work,
     * lowered by every event that can make it busier. With gating
     * off every stage runs every cycle.
     */
    void tick(Cycle cycle) override;

    /**
     * Gate each pipeline stage on its wake cycle (the fast engine;
     * System::run sets this from SystemParams::skipAhead) or run
     * every stage every cycle (the plain reference loop). Either way
     * every stage starts awake.
     */
    void setStageGating(bool on);

    /** @return true when the trace is fully executed and drained. */
    bool done() const override;

    /**
     * Earliest cycle >= @p now at which this core could commit,
     * complete, dispatch, issue, fetch, or change a stall
     * classification — the skip-ahead kernel's quiescence contract
     * (see Clocked::nextWorkCycle): the minimum of the six stages'
     * wake cycles, or @p now while a pending store's data is ready.
     */
    Cycle nextWorkCycle(Cycle now) const override;

    /**
     * Bring every stat up to date through the cycle the kernel names
     * (see Clocked::settle): every stage was asleep through the
     * cycles since the last tick, so the open stat spans run on to
     * @p through. A done() core keeps its last tick: the kernel's
     * drain visit ticks nothing.
     */
    void settle(Cycle through) override;

    /**
     * Bring every stat up to date through the last cycle this core
     * accounted (ticked or settled). The per-cycle stats an idle stage
     * still changes accrue as run-length spans: commit-idle cycles
     * with their CPI-stack slots and the issue stage's stall counter
     * (one open run each, closed when its value changes), and the
     * occupancy samples (taken once per tick for every cycle since
     * the last, into a core-local table). Commits count their
     * fetch-to-commit latencies in a second table. settle() closes
     * the runs, takes the owed samples and folds both tables into the
     * stats. The span readers below use it, and so does
     * System::settleStats() when no kernel is live.
     */
    void settle();

    /**
     * Host-side diagnostic (never a stat, never serialized): a
     * monotone count of the state transitions this core's ticks made
     * (the LSQ's and fetch's own counters fold in as their stages
     * run). simbench's traced run reads it to tell a useful visit
     * from an idle one.
     */
    std::uint64_t activityStamp() const { return activity_; }

    std::uint64_t committed() const { return committed_.value(); }
    Cycle lastCommitCycle() const { return lastCommitCycle_; }

    /**
     * Component access for experiments and tests. The span-backed
     * readers (cpiStack(), windowFullStalls()) settle the open spans
     * first, so a core ticked by hand reads its stats up to date. @{
     */
    BranchPredictor &bpred() { return *bpred_; }
    FetchUnit &fetchUnit() { return *fetch_; }
    LoadStoreQueue &lsq() { return *lsq_; }
    RenameUnit &renameUnit() { return *rename_; }
    /** Commit-slot cycle accounting (see obs/cpi_stack.hh). */
    const obs::CpiStack &cpiStack() const
    {
        const_cast<Core *>(this)->settle();
        return cpiStack_;
    }
    const CoreParams &params() const { return params_; }
    std::uint64_t replays() const { return replays_.value(); }
    std::uint64_t windowFullStalls() const
    {
        const_cast<Core *>(this)->settle();
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

    /** The pipeline stages tick() gates on a wake cycle. */
    enum class Stage : std::uint8_t
    {
        Commit,
        Lsq, ///< LSQ arbitration and FIFO release.
        Execute,
        Dispatch,
        Issue,
        Fetch,
    };
    static constexpr unsigned kNumStages = 6;

    /**
     * Host-side diagnostics (never stats, never serialized): ticks
     * taken, and how many of them called @p stage — all of them
     * without stage gating. @{
     */
    std::uint64_t ticks() const { return ticks_; }
    std::uint64_t stageRuns(Stage stage) const
    {
        return stageRuns_[static_cast<unsigned>(stage)];
    }
    /** @} */

    /**
     * Fault injection (--inject-fault=stall:<cycle>): from @p cycle
     * on, the commit stage retires nothing, so the whole window backs
     * up — the watchdog must detect and diagnose this.
     */
    void injectCommitStall(Cycle cycle) { commitStallAt_ = cycle; }

    /**
     * Write or read the complete microarchitectural state of this
     * core: window, stations, execute pipelines, LSQ, fetch pipeline,
     * BHT, rename pools, scoreboard and commit bookkeeping. Stats
     * travel with the stats tree (settle() first); the injected-fault
     * configuration is re-armed by construction, not restored. Wake
     * cycles and the open spans are derived and never written: a
     * restore starts every stage awake and the spans at the next
     * tick.
     */
    void checkpoint(ckpt::Archive &ar);

  private:
    /** Confirmed consumer-usable cycle (kCycleNever if unknown). */
    Cycle actualReadyOf(std::uint64_t prod_seq) const;

    /**
     * Can @p e's gating sources feed an execute stage at
     * @p exec_start = @p now + dispatchToExec? @return a cycle
     * <= @p now if so, else a lower bound (> @p now) on the first
     * cycle they could, read off the first source that fails (the
     * failing select's contribution to the dispatch wake).
     */
    Cycle sourcesReadyAt(const WindowEntry &e, Cycle now,
                         Cycle exec_start) const;
    /** One source of sourcesReadyAt(): producer @p prod. */
    Cycle sourceReadyAt(std::uint64_t prod, Cycle now,
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
    void lsqStage(Cycle cycle);
    void loadCompletionStage(Cycle cycle);
    void pendingStoreStage(Cycle cycle);
    void executeStage(Cycle cycle);
    void dispatchStage(Cycle cycle);
    void issueStage(Cycle cycle);
    void fetchStage(Cycle cycle);

    /** Wake cycle the commit stage sleeps until after a run at
     *  @p cycle. */
    Cycle commitWakeAfter(Cycle cycle) const;

    /**
     * @p e just became Done or learned its miss flags at @p cycle: if
     * it heads the window, wake the commit stage at its doneCycle,
     * or next cycle when the stall attribution changes now.
     */
    void noteHeadChange(const WindowEntry &e, Cycle cycle);

    /** Open every stat span at @p cycle (first tick after a
     *  construction or restore). */
    void openSpans(Cycle cycle);

    /**
     * Take the occupancy samples of the cycles before @p end not yet
     * taken (see occCycles_), at the current occupancies.
     */
    void sampleOccupancy(Cycle end)
    {
        const std::uint64_t n = end - occEnd_;
        occEnd_ = end;
        occHeld_[kOccWindow] = static_cast<std::uint32_t>(window_.size());
        for (unsigned i = 0; i < kNumOcc; ++i)
            occCycles_[occBase_[i] + occHeld_[i]] += n;
    }

    /** Close the commit / issue stall spans through @p end. @{ */
    void closeCommitSpan(Cycle end);
    void closeIssueSpan(Cycle end);
    /** @} */

    /** Every stage awake. */
    void wakeAll();

    /**
     * What blocks the front of the fetch queue from issuing: the
     * issue stage's gate sequence, asked once per slot by
     * issueStage() (a blocked stage charges a span of stalls to the
     * answer, see issueSpan_). Side-effect free: it does not
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

    /** Execute-stage action, at @p cycle, once operands are
     *  validated. */
    void performExec(WindowEntry &e, Cycle exec_start, ExecUnit &unit,
                     Cycle cycle);
    void replay(WindowEntry &e, Cycle now);

    /**
     * The stations @p rec may enter: one station twice (RSA, RSBR, a
     * unified RSE or RSF), or a dealt pair (E0/E1, F0/F1), which the
     * pair's deal toggle, dealToggle(first), takes in turn.
     */
    std::pair<RsId, RsId> stationsFor(const TraceRecord &rec) const;
    unsigned &dealToggle(RsId first)
    {
        return first == kRsF0 ? rsfToggle_ : rseToggle_;
    }
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
     * State transitions: bumped by every stage that moves an
     * instruction, plus the LSQ's and fetch's activity as their
     * stages run. See activityStamp().
     */
    std::uint64_t activity_ = 0;
    Cycle commitStallAt_ = kCycleNever; ///< see injectCommitStall().

    /**
     * Stage gating (see tick()). Each wake cycle is the cycle at
     * which its stage next has work: a stage recomputes its own
     * after it runs (only when gating), and every event that can
     * make it busier lowers it to the event's cycle or earlier.
     * Derived host-side state: never serialized, reset on restore.
     * Without gating no stage raises its wake cycle, so all stay 0.
     * @{
     */
    bool gateStages_ = false;
    std::uint64_t ticks_ = 0;                          ///< see ticks().
    std::array<std::uint64_t, kNumStages> stageRuns_{}; ///< see ticks().
    Cycle commitWake_ = 0;
    Cycle lsqWake_ = 0; ///< LSQ arbitration + load completions.
    Cycle execWake_ = 0;
    /** The select's; see dispatchStage() for what lowers it. */
    Cycle dispatchWake_ = 0;
    Cycle issueWake_ = 0;
    Cycle fetchWake_ = 0;
    /** @} */

    /**
     * Stat spans (see settle()). accountedEnd_ is one past the last
     * cycle ticked or settled: the spans run up to it. @{
     */
    bool spansOpen_ = false;
    Cycle accountedEnd_ = 0;
    /**
     * Per-cycle occupancy samples of each station (by RsId), the
     * window and the LQ/SQ, taken once per tick for the cycle ticked
     * and every cycle the core sat out since its previous tick (whose
     * occupancies were frozen): one add per structure into a compact
     * core-local table, occCycles_[occBase_[i] + v] counting the
     * cycles structure i held v entries. settle() folds it into the
     * stats with one sample(v, n) per value held: every sample is an
     * integer and every running sum stays below 2^53, so the moments
     * do not depend on how the samples are grouped. The window and
     * stations are sampled at the start of a
     * tick, the LQ/SQ after commit: a load freed at commit moves
     * that cycle's LQ sample. occHeld_ mirrors the occupancies so a
     * sample touches no station or queue. occEnd_ is one past the
     * last cycle sampled.
     */
    enum : unsigned
    {
        kOccWindow = kNumRs,
        kOccLq,
        kOccSq,
        kNumOcc
    };
    std::array<std::uint32_t, kNumOcc> occHeld_{};
    std::array<std::uint32_t, kNumOcc> occBase_{};
    std::vector<std::uint64_t> occCycles_;
    Cycle occEnd_ = 0;
    /**
     * Commits per fetch-to-commit latency below the histogram's bound,
     * folded by settle() like occCycles_; a longer latency is sampled
     * at its commit. @{
     */
    static constexpr unsigned kCommitLatencySpan = 256;
    std::array<std::uint64_t, kCommitLatencySpan> commitLatency_{};
    /** @} */
    /** The commit stage's per-cycle charge on a cycle that retires
     *  nothing: every slot to one CPI-stack category, and one
     *  commit-idle cycle while the window holds anything. */
    struct CommitSpan
    {
        obs::CommitSlot slot = obs::CommitSlot::FetchEmpty;
        bool idle = false;
        Cycle since = 0;
    };
    CommitSpan commitSpan_;
    /** The issue stage's per-cycle charge on a cycle that issues
     *  nothing: one stall of @ref block (see chargeIssueStalls). */
    struct IssueSpan
    {
        IssueBlock block = IssueBlock::None;
        Cycle since = 0;
    };
    IssueSpan issueSpan_;
    /** @} */
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
