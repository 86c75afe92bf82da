#include "cpu/core.hh"

#include "ckpt/snapshot.hh"
#include <algorithm>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "isa/instr.hh"

namespace s64v
{

Core::Core(const CoreParams &params, CpuId cpu, MemSystem &mem,
           stats::Group *parent)
    : params_(params), cpu_(cpu), mem_(mem),
      statGroup_("cpu" + std::to_string(cpu), parent),
      cpiStack_(params.commitWidth, &statGroup_),
      window_(params.windowEntries),
      committed_(statGroup_.scalar("committed",
                                   "instructions committed")),
      committedLoads_(statGroup_.scalar("loads", "loads committed")),
      committedStores_(statGroup_.scalar("stores",
                                         "stores committed")),
      committedBranches_(statGroup_.scalar("branches",
                                           "branches committed")),
      replays_(statGroup_.scalar("replays",
                                 "speculative-dispatch cancels "
                                 "(pipeline replays)")),
      windowFullStalls_(statGroup_.scalar("window_full_stalls",
                                          "issue stalls: window "
                                          "full")),
      fetchEmptyStalls_(statGroup_.scalar("fetch_empty_cycles",
                                          "issue cycles with an "
                                          "empty fetch queue")),
      serializeStalls_(statGroup_.scalar("serialize_stalls",
                                         "issue stalls: special-"
                                         "instruction serialization")),
      commitIdleCycles_(statGroup_.scalar("commit_idle_cycles",
                                          "cycles with work in the "
                                          "window but nothing to "
                                          "commit")),
      windowOccupancy_(statGroup_.histogram(
          "window_occupancy",
          "instruction-window (ROB) entries held, sampled per cycle",
          0.0, static_cast<double>(params.windowEntries) + 1.0,
          std::min(params.windowEntries + 1, 16u))),
      fetchToCommit_(statGroup_.histogram(
          "fetch_to_commit",
          "cycles from window entry to retirement",
          0.0, kCommitLatencySpan, 32))
{
    bpred_ = std::make_unique<BranchPredictor>(params_.bpred,
                                               &statGroup_);
    fetch_ = std::make_unique<FetchUnit>(params_, cpu_, *bpred_, mem_,
                                         &statGroup_);
    lsq_ = std::make_unique<LoadStoreQueue>(params_, cpu_, mem_,
                                            &statGroup_);
    rename_ = std::make_unique<RenameUnit>(params_.intRenameRegs,
                                           params_.fpRenameRegs,
                                           &statGroup_);

    rs_.resize(kNumRs);
    rs_[kRsA] = std::make_unique<ReservationStation>(
        "rsa", params_.rsaEntries, kNumAgenUnits, &statGroup_);
    rs_[kRsBr] = std::make_unique<ReservationStation>(
        "rsbr", params_.rsbrEntries, 1, &statGroup_);
    if (params_.unifiedRs) {
        rs_[kRsE0] = std::make_unique<ReservationStation>(
            "rse", params_.rseEntries * 2, 2, &statGroup_);
        rs_[kRsF0] = std::make_unique<ReservationStation>(
            "rsf", params_.rsfEntries * 2, 2, &statGroup_);
    } else {
        rs_[kRsE0] = std::make_unique<ReservationStation>(
            "rse0", params_.rseEntries, 1, &statGroup_);
        rs_[kRsE1] = std::make_unique<ReservationStation>(
            "rse1", params_.rseEntries, 1, &statGroup_);
        rs_[kRsF0] = std::make_unique<ReservationStation>(
            "rsf0", params_.rsfEntries, 1, &statGroup_);
        rs_[kRsF1] = std::make_unique<ReservationStation>(
            "rsf1", params_.rsfEntries, 1, &statGroup_);
    }

    // One occupancy-sample slot per value each structure can hold
    // (an absent station keeps one unused slot).
    unsigned slots = 0;
    for (unsigned i = 0; i < kNumOcc; ++i) {
        occBase_[i] = slots;
        if (i < kNumRs)
            slots += rs_[i] ? rs_[i]->capacity() + 1 : 1;
        else if (i == kOccWindow)
            slots += params_.windowEntries + 1;
        else if (i == kOccLq)
            slots += params_.loadQueueEntries + 1;
        else
            slots += params_.storeQueueEntries + 1;
    }
    occCycles_.assign(slots, 0);

    static const char *const kUnitNames[] = {"eaga", "eagb", "exa", "exb",
                                             "fla",  "flb",  "br"};
    static_assert(std::size(kUnitNames) ==
                  kNumAgenUnits + kNumIntUnits + kNumFpUnits + 1);
    units_.reserve(std::size(kUnitNames));
    for (const char *name : kUnitNames)
        units_.emplace_back(name);
}

void
Core::setTrace(VectorTraceSource *source)
{
    fetch_->setSource(source);
}

Cycle
Core::actualReadyOf(std::uint64_t prod_seq) const
{
    if (prod_seq == 0 || !window_.contains(prod_seq))
        return 0;
    return window_.entry(prod_seq).actualReady;
}

inline Cycle
Core::sourceReadyAt(std::uint64_t prod, Cycle now, Cycle exec_start) const
{
    if (!window_.contains(prod))
        return now; // committed or no producer (seq 0): ready.
    const WindowEntry &p = window_.entry(prod);
    // Confirmed readiness is the only schedule without speculative
    // dispatch (deep-pipeline bubbles are fully exposed), and the one
    // after a miss-cancel broadcast; before it the optimistic
    // schedule holds, until at most the broadcast.
    Cycle r = p.actualReady;
    Cycle cap = kCycleNever;
    if (params_.speculativeDispatch && p.missKnownAt > now) {
        r = p.predReady;
        cap = p.missKnownAt;
    }
    if (r <= exec_start)
        return now;
    // r - d2e > now, and a producer with no schedule yet (r ==
    // kCycleNever) yields a bound just as far out.
    return std::min(r - params_.dispatchToExec, cap);
}

Cycle
Core::sourcesReadyAt(const WindowEntry &e, Cycle now,
                     Cycle exec_start) const
{
    // Stores gate address generation on the address source only; the
    // data register is checked before commit (pendingStoreStage).
    const Cycle t = sourceReadyAt(e.src1Prod, now, exec_start);
    if (t > now || e.rec.isStore())
        return t;
    return sourceReadyAt(e.src2Prod, now, exec_start);
}

bool
Core::sourcesValid(const WindowEntry &e, Cycle exec_start) const
{
    const bool store = e.rec.isStore();
    const Cycle a1 = actualReadyOf(e.src1Prod);
    if (a1 == kCycleNever || a1 > exec_start)
        return false;
    if (!store) {
        const Cycle a2 = actualReadyOf(e.src2Prod);
        if (a2 == kCycleNever || a2 > exec_start)
            return false;
    }
    return true;
}

void
Core::replay(WindowEntry &e, Cycle now)
{
    e.state = InstrState::Waiting;
    e.predReady = kCycleNever;
    e.actualReady = kCycleNever;
    e.missKnownAt = kCycleNever;
    // Cancelled operations re-enter selection after the pipeline
    // recovers, not on the very next cycle.
    e.notBefore = now + params_.dispatchToExec;
    dispatchWake_ = std::min(dispatchWake_, e.notBefore);
    ++e.replays;
    ++replays_;
    ++activity_;
}

RsId
Core::stationFor(const TraceRecord &rec)
{
    if (rec.isMem())
        return kRsA;
    if (rec.isBranch())
        return kRsBr;
    if (isFpClass(rec.cls)) {
        if (params_.unifiedRs)
            return kRsF0;
        return (rsfToggle_++ & 1) ? kRsF1 : kRsF0;
    }
    if (params_.unifiedRs)
        return kRsE0;
    return (rseToggle_++ & 1) ? kRsE1 : kRsE0;
}

obs::CommitSlot
Core::classifyCommitStall(Cycle cycle) const
{
    if (window_.empty())
        return fetch_->fetchBlockReason(cycle);
    const WindowEntry &h = window_.head();
    if (h.missedL2)
        return obs::CommitSlot::L2Miss;
    if (h.missedTlb)
        return obs::CommitSlot::TlbMiss;
    if (h.missedL1)
        return obs::CommitSlot::L1DMiss;
    if (h.rec.cls == InstrClass::Special)
        return obs::CommitSlot::Serialize;
    if (window_.full())
        return obs::CommitSlot::WindowFull;
    return obs::CommitSlot::RawDep;
}

void
Core::commitStage(Cycle cycle)
{
    unsigned n = 0;
    unsigned loads = 0;
    bool stores = false;
    // An injected retirement freeze leaves everything in the window
    // so the deadlock propagates upstream naturally.
    while (cycle < commitStallAt_ && n < params_.commitWidth &&
           !window_.empty()) {
        WindowEntry &e = window_.head();
        if (e.state != InstrState::Done || e.doneCycle > cycle)
            break;
        if (e.rec.isStore()) {
            lsq_->commitStore(e.lsqIndex);
            stores = true;
        } else if (e.rec.isLoad()) {
            lsq_->freeLoad(e.lsqIndex);
            ++loads;
        }
        rename_->release(e.usesIntRename, e.usesFpRename);
        ++committed_;
        if (e.rec.isLoad())
            ++committedLoads_;
        if (e.rec.isStore())
            ++committedStores_;
        if (e.rec.isBranch())
            ++committedBranches_;
        const Cycle latency = cycle - e.issueCycle;
        if (latency < kCommitLatencySpan)
            ++commitLatency_[latency];
        else
            fetchToCommit_.sample(static_cast<double>(latency));
        lastCommitCycle_ = cycle;
        ++rawCommitted_;
        recent_[recentNext_] = {e.seq, e.rec.pc, cycle};
        recentNext_ = (recentNext_ + 1) % kRecentCommits;
        if (pipeview_) {
            PipeRecord pr;
            pr.seq = e.seq;
            pr.pc = e.rec.pc;
            pr.cls = e.rec.cls;
            pr.issue = e.issueCycle;
            pr.dispatch = e.dispatchCycle;
            pr.execute = e.execCycle;
            pr.complete = e.doneCycle;
            pr.commit = cycle;
            pr.replays = e.replays;
            pipeview_->record(pr);
        }
        // A retired producer stops gating its consumers: sooner than
        // its schedule said when forwarding is slower than the
        // dispatch-to-execute distance, or when a miss merged into a
        // fill that landed retires before its cancel broadcast.
        if (e.rec.dst != kNoReg &&
            (forwardDelay() > params_.dispatchToExec ||
             (e.missKnownAt != kCycleNever && e.missKnownAt > cycle)))
            dispatchWake_ = std::min(dispatchWake_, cycle);
        window_.retireHead();
        ++n;
        ++activity_;
    }

    // Commit-slot accounting: every slot of every ticked cycle goes
    // to exactly one bucket, so totals always sum to commitWidth *
    // ticked cycles and the committed bucket mirrors committed_. A
    // cycle that retires nothing joins the open span of such cycles.
    if (n == 0) {
        const obs::CommitSlot slot = cycle >= commitStallAt_
            ? obs::CommitSlot::Serialize
            : classifyCommitStall(cycle);
        const bool idle = !window_.empty();
        if (slot != commitSpan_.slot || idle != commitSpan_.idle) {
            closeCommitSpan(cycle);
            commitSpan_.slot = slot;
            commitSpan_.idle = idle;
        }
    } else {
        closeCommitSpan(cycle);
        cpiStack_.account(obs::CommitSlot::Committed, n);
        // The span from the next cycle on needs the stall class only
        // if the stage may sleep through that cycle; otherwise the
        // next run takes it (Committed stands for "not taken").
        obs::CommitSlot slot = obs::CommitSlot::Committed;
        if (n < params_.commitWidth) {
            slot = classifyCommitStall(cycle);
            cpiStack_.account(slot, params_.commitWidth - n);
        }
        if (gateStages_) {
            commitWake_ = commitWakeAfter(cycle);
            if (slot == obs::CommitSlot::Committed &&
                commitWake_ > cycle + 1)
                slot = classifyCommitStall(cycle);
        }
        commitSpan_ = {slot, !window_.empty(), cycle + 1};
        if (loads) {
            // The LQ is sampled after commit: this cycle's sample
            // moves to the freed occupancy.
            std::uint32_t &lq = occHeld_[kOccLq];
            --occCycles_[occBase_[kOccLq] + lq];
            lq -= loads;
            ++occCycles_[occBase_[kOccLq] + lq];
        }
        if (stores)
            lsqWake_ = std::min(lsqWake_, cycle);
        // Freed window, rename and LQ entries, or the drain a
        // serializing instruction waits for.
        switch (issueSpan_.block) {
          case IssueBlock::WindowFull:
          case IssueBlock::Serialize:
          case IssueBlock::Rename:
          case IssueBlock::LqFull:
            issueWake_ = std::min(issueWake_, cycle);
            break;
          default:
            break;
        }
        return;
    }
    if (gateStages_)
        commitWake_ = commitWakeAfter(cycle);
}

Cycle
Core::commitWakeAfter(Cycle cycle) const
{
    // An injected commit stall keeps the stage on the reference
    // per-cycle path.
    if (commitStallAt_ != kCycleNever)
        return cycle + 1;
    if (window_.empty())
        return fetch_->blockReasonChangesAt(cycle);
    const WindowEntry &h = window_.head();
    if (h.state != InstrState::Done)
        return kCycleNever; // until noteHeadChange().
    return std::max(h.doneCycle, cycle + 1);
}

void
Core::noteHeadChange(const WindowEntry &e, Cycle cycle)
{
    if (e.seq != window_.headSeq())
        return;
    const Cycle at = classifyCommitStall(cycle + 1) != commitSpan_.slot
        ? cycle
        : e.doneCycle;
    commitWake_ = std::min(commitWake_, at);
}

void
Core::closeCommitSpan(Cycle end)
{
    if (end <= commitSpan_.since)
        return;
    const std::uint64_t n = end - commitSpan_.since;
    cpiStack_.account(commitSpan_.slot, params_.commitWidth * n);
    if (commitSpan_.idle)
        commitIdleCycles_ += n;
    commitSpan_.since = end;
}

void
Core::lsqStage(Cycle cycle)
{
    const std::size_t sq = lsq_->sqSize();
    const std::uint64_t before = lsq_->activity();
    const Cycle wake = lsq_->tick(cycle);
    activity_ += lsq_->activity() - before;
    if (lsq_->sqSize() != sq) {
        occHeld_[kOccSq] = static_cast<std::uint32_t>(lsq_->sqSize());
        if (issueSpan_.block == IssueBlock::SqFull ||
            issueSpan_.block == IssueBlock::Serialize)
            issueWake_ = std::min(issueWake_, cycle);
    }
    if (!lsq_->completedLoads().empty())
        loadCompletionStage(cycle);
    if (gateStages_)
        lsqWake_ = wake;
}

void
Core::loadCompletionStage(Cycle cycle)
{
    for (const LoadCompletion &lc : lsq_->completedLoads()) {
        if (!window_.contains(lc.seq))
            panic("load completion for retired instruction");
        WindowEntry &e = window_.entry(lc.seq);
        const Cycle was = e.predReady;
        e.doneCycle = lc.completion;
        e.actualReady = lc.completion + forwardDelay();
        e.missedL1 = !lc.l1Hit;
        e.missedL2 = !lc.l1Hit && !lc.l2Hit;
        e.missedTlb = lc.tlbMiss;
        if (lc.l1Hit) {
            e.predReady = e.actualReady;
        } else {
            // Keep the optimistic hit schedule visible to dependents
            // until the cancel broadcast; then they see actualReady.
            e.missKnownAt = lc.missKnownAt;
        }
        e.state = InstrState::Done;
        ++activity_;
        // Dependents may select sooner than the hit schedule they saw
        // (a hit or forward that beat it, a confirmed schedule that
        // undercuts it after the broadcast), or at all once confirmed
        // readiness is what they wait for.
        const unsigned d2e = params_.dispatchToExec;
        if (e.rec.dst != kNoReg &&
            (!params_.speculativeDispatch || e.predReady < was ||
             (e.actualReady < was && was != kCycleNever &&
              e.missKnownAt < was - d2e)))
            dispatchWake_ = std::min(dispatchWake_, cycle);
        noteHeadChange(e, cycle);
    }
    lsq_->completedLoads().clear();
}

void
Core::pendingStoreStage(Cycle cycle)
{
    auto it = pendingStores_.begin();
    while (it != pendingStores_.end()) {
        WindowEntry &e = window_.entry(*it);
        const Cycle a = actualReadyOf(e.src2Prod);
        if (a == kCycleNever) {
            ++it;
            continue;
        }
        // predReady holds the agen execute cycle for stores (they
        // produce no register result).
        e.doneCycle = std::max(e.predReady, a);
        e.state = InstrState::Done;
        ++activity_;
        noteHeadChange(e, cycle);
        it = pendingStores_.erase(it);
    }
}

void
Core::performExec(WindowEntry &e, Cycle exec_start, ExecUnit &unit,
                  Cycle cycle)
{
    ++activity_;
    e.execCycle = exec_start;
    ReservationStation &station = *rs_[e.rsId];
    station.remove(e.seq);
    station.noteDispatch();
    --occHeld_[e.rsId];
    if (issueSpan_.block == IssueBlock::StationFull)
        issueWake_ = std::min(issueWake_, cycle);
    const Cycle was = e.predReady;

    const InstrClass cls = e.rec.cls;
    switch (cls) {
      case InstrClass::Load:
        lsq_->setAddress(e.lsqIndex, false, e.rec.ea, exec_start);
        lsqWake_ = std::min(lsqWake_, exec_start);
        e.state = InstrState::Executing;
        return; // completes through the LSQ.
      case InstrClass::Store:
        lsq_->setAddress(e.lsqIndex, true, e.rec.ea, exec_start);
        e.predReady = exec_start; // agen time (see pendingStoreStage).
        e.state = InstrState::Executing;
        pendingStores_.push_back(e.seq);
        break;
      case InstrClass::BranchCond:
      case InstrClass::BranchUncond:
      case InstrClass::Call:
      case InstrClass::Return:
        if (e.rec.isCondBranch()) {
            bpred_->update(e.rec.pc, e.rec.taken());
            bpred_->noteOutcome(e.mispredicted);
        }
        if (e.mispredicted) {
            fetch_->redirect(exec_start);
            fetchWake_ = std::min(fetchWake_, cycle);
        }
        e.doneCycle = exec_start;
        e.actualReady = exec_start + forwardDelay();
        e.predReady = e.actualReady;
        e.state = InstrState::Done;
        break;
      default: {
        unsigned lat = execLatency(cls);
        if (cls == InstrClass::Special) {
            switch (params_.specialMode) {
              case SpecialInstrMode::OneCycle:
                lat = 1;
                break;
              case SpecialInstrMode::FixedPenalty:
                lat = params_.specialPenalty;
                break;
              case SpecialInstrMode::Precise:
                lat = 3; // drain already enforced at issue.
                break;
            }
        }
        const Cycle done = exec_start + lat - 1;
        e.doneCycle = done;
        e.actualReady = done + forwardDelay();
        e.predReady = e.actualReady;
        e.state = InstrState::Done;
        if (isUnpipelined(cls) ||
            (cls == InstrClass::Special &&
             params_.specialMode == SpecialInstrMode::FixedPenalty)) {
            unit.occupyUntil(exec_start + lat);
        }
        break;
      }
    }
    // A result known sooner than the dispatch-time prediction (a
    // Special with a zero FixedPenalty), or a confirmed readiness
    // without speculative dispatch, can let a waiting consumer
    // select sooner.
    if (e.rec.dst != kNoReg &&
        (e.predReady < was || !params_.speculativeDispatch))
        dispatchWake_ = std::min(dispatchWake_, cycle);
    if (e.state == InstrState::Done)
        noteHeadChange(e, cycle);
}

void
Core::executeStage(Cycle cycle)
{
    Cycle wake = kCycleNever;
    for (ExecUnit &unit : units_) {
        dueScratch_.clear();
        unit.collectDue(cycle, dueScratch_);
        wake = std::min(wake, unit.nextExecStart());
        for (const PendingExec &pe : dueScratch_) {
            if (!window_.contains(pe.seq))
                panic("in-flight instruction left the window");
            WindowEntry &e = window_.entry(pe.seq);
            if (e.state != InstrState::InFlight)
                continue;
            if (!sourcesValid(e, pe.execStart)) {
                replay(e, cycle);
                continue;
            }
            performExec(e, pe.execStart, unit, cycle);
        }
    }
    if (gateStages_)
        execWake_ = wake;
}

void
Core::dispatchStage(Cycle cycle)
{
    const Cycle exec_start = cycle + params_.dispatchToExec;
    // Lower bound on the next cycle an entry left waiting here could
    // be selected: the wake, if nothing dispatches.
    Cycle bound = kCycleNever;
    bool dispatched = false;

    auto base_ok = [&](std::uint64_t seq) {
        const WindowEntry &e = window_.entry(seq);
        if (e.state != InstrState::Waiting)
            return false;
        const Cycle at = cycle < e.notBefore
            ? e.notBefore
            : sourcesReadyAt(e, cycle, exec_start);
        if (at <= cycle)
            return true;
        bound = std::min(bound, at);
        return false;
    };
    // A ready entry that finds no free unit can go next cycle: unit
    // availability is not part of sourcesReadyAt().
    auto unit_ok = [&](bool free) {
        if (!free)
            bound = std::min(bound, cycle + 1);
        return free;
    };

    auto dispatch_to = [&](std::uint64_t seq, ExecUnit &unit) {
        ++activity_;
        dispatched = true;
        WindowEntry &e = window_.entry(seq);
        e.state = InstrState::InFlight;
        e.dispatchCycle = cycle;
        unit.push(seq, exec_start);
        execWake_ = std::min(execWake_, exec_start);
        if (e.rec.isLoad()) {
            // Speculative dispatch (§3.1): publish the L1-hit-based
            // availability so dependents can dispatch to meet the
            // forwarded data.
            e.predReady = exec_start + mem_.params().l1d.latency + 2;
        } else if (e.rec.cls != InstrClass::Store) {
            e.predReady = exec_start + execLatency(e.rec.cls) - 1 +
                forwardDelay();
        }
    };

    // RSA -> the two address generators.
    selectScratch_.clear();
    rs_[kRsA]->select(base_ok, selectScratch_);
    for (std::size_t i = 0; i < selectScratch_.size(); ++i)
        dispatch_to(selectScratch_[i], units_[i]);

    // RSBR -> branch unit.
    selectScratch_.clear();
    rs_[kRsBr]->select(base_ok, selectScratch_);
    for (std::uint64_t seq : selectScratch_)
        dispatch_to(seq, units_.back());

    // Integer and FP stations -> EX / FL units.
    auto run_pair = [&](RsId first, unsigned unit_base) {
        if (params_.unifiedRs) {
            ExecUnit *pair[2] = {&units_[unit_base],
                                 &units_[unit_base + 1]};
            bool used[2] = {false, false};
            auto ok = [&](std::uint64_t seq) {
                return base_ok(seq) &&
                    unit_ok((!used[0] &&
                             pair[0]->available(exec_start)) ||
                            (!used[1] &&
                             pair[1]->available(exec_start)));
            };
            selectScratch_.clear();
            rs_[first]->select(ok, selectScratch_);
            for (std::uint64_t seq : selectScratch_) {
                ExecUnit *u = nullptr;
                for (unsigned k = 0; k < 2; ++k) {
                    if (!used[k] && pair[k]->available(exec_start)) {
                        u = pair[k];
                        used[k] = true;
                        break;
                    }
                }
                if (!u)
                    break;
                dispatch_to(seq, *u);
            }
        } else {
            for (unsigned i = 0; i < 2; ++i) {
                ExecUnit &u = units_[unit_base + i];
                auto ok = [&](std::uint64_t seq) {
                    return base_ok(seq) &&
                        unit_ok(u.available(exec_start));
                };
                selectScratch_.clear();
                rs_[first + i]->select(ok, selectScratch_);
                for (std::uint64_t seq : selectScratch_)
                    dispatch_to(seq, u);
            }
        }
    };
    run_pair(kRsE0, kNumAgenUnits);
    run_pair(kRsF0, kNumAgenUnits + kNumIntUnits);

    // A select that picked nothing examined every waiting entry, so
    // its bound holds until an event lowers it: a retirement, a load
    // completion or an execute result that lets a consumer go sooner,
    // a replay, an insert. One that dispatched bounds neither the
    // entries past its width limit nor the consumers of the schedules
    // it just published: it selects again next cycle.
    if (gateStages_)
        dispatchWake_ = dispatched ? cycle + 1 : bound;
}

void
Core::issueStage(Cycle cycle)
{
    const bool was_empty = window_.empty();
    unsigned n = 0;
    IssueBlock block = IssueBlock::None;
    for (; n < params_.issueWidth; ++n) {
        block = issueBlock();
        if (block != IssueBlock::None)
            break;
        // The open stall span ends before the first issue (its
        // charge reads the blocked front and the deal toggles).
        if (n == 0)
            closeIssueSpan(cycle);
        const FetchedInstr &fi = fetch_->front();
        const TraceRecord &rec = fi.rec;
        const bool need_int =
            rec.dst != kNoReg && !isFpReg(rec.dst);
        const bool need_fp = rec.dst != kNoReg && isFpReg(rec.dst);

        ReservationStation *station = nullptr;
        RsId rsid = kRsA;
        if (rec.cls != InstrClass::Nop) {
            rsid = stationFor(rec);
            // issueBlock() found room in the station or, for a dealt
            // pair, in its sibling (E0/E1 and F0/F1 differ in bit 0).
            if (rs_[rsid]->full())
                rsid = static_cast<RsId>(rsid ^ 1);
            station = rs_[rsid].get();
        }

        WindowEntry &e = window_.allocate(rec, cycle);
        ++rawIssued_;
        ++activity_;
        e.usesIntRename = need_int;
        e.usesFpRename = need_fp;
        rename_->allocate(need_int, need_fp);
        if (rec.isLoad()) {
            e.lsqIndex = lsq_->allocateLoad(e.seq);
            ++occHeld_[kOccLq];
        } else if (rec.isStore()) {
            e.lsqIndex = lsq_->allocateStore(e.seq);
            ++occHeld_[kOccSq];
        }
        if (rec.isMem() && e.lsqIndex < 0)
            panic("LSQ allocation failed after capacity check");

        e.predictedTaken = fi.predictedTaken;
        e.mispredicted = fi.mispredicted;

        auto producer = [&](RegId r) -> std::uint64_t {
            if (r == kNoReg)
                return 0;
            const std::uint64_t p = lastProducer_[r];
            return (p != 0 && window_.contains(p)) ? p : 0;
        };
        e.src1Prod = producer(rec.src1);
        e.src2Prod = producer(rec.src2);
        if (rec.dst != kNoReg)
            lastProducer_[rec.dst] = e.seq;

        if (rec.cls == InstrClass::Nop) {
            e.state = InstrState::Done;
            e.doneCycle = cycle;
            e.predReady = e.actualReady = cycle + 1;
        } else {
            // A fresh entry is Waiting: the select may take it from
            // the next cycle on, once its sources allow.
            e.rsId = static_cast<std::uint8_t>(rsid);
            station->insert(e.seq);
            ++occHeld_[rsid];
            dispatchWake_ = std::min(
                dispatchWake_,
                sourcesReadyAt(e, cycle + 1,
                               cycle + 1 + params_.dispatchToExec));
        }
        fetch_->popFront();
    }

    if (n == 0) {
        // Nothing issued: this cycle joins the open stall span.
        if (block != issueSpan_.block) {
            closeIssueSpan(cycle);
            issueSpan_.block = block;
        }
    } else {
        // An empty fetch queue stalls the cycle only when nothing
        // issued in it.
        if (block != IssueBlock::None && block != IssueBlock::FetchEmpty)
            chargeIssueStalls(block, 1);
        issueSpan_ = {block, cycle + 1};
        // A new head, or a window that fills, can change the commit
        // stage's stall attribution.
        if (was_empty ||
            (window_.full() &&
             classifyCommitStall(cycle + 1) != commitSpan_.slot))
            commitWake_ = std::min(commitWake_, cycle);
        // Queue room for the next fetch group.
        fetchWake_ = std::min(fetchWake_, cycle);
    }
    // Blocked: asleep until an event lifts the block (see the wakes
    // in commitStage, lsqStage, performExec and fetchStage).
    if (gateStages_)
        issueWake_ = block == IssueBlock::None ? cycle + 1 : kCycleNever;
}

void
Core::closeIssueSpan(Cycle end)
{
    if (end <= issueSpan_.since)
        return;
    if (issueSpan_.block != IssueBlock::None)
        chargeIssueStalls(issueSpan_.block, end - issueSpan_.since);
    issueSpan_.since = end;
}

void
Core::fetchStage(Cycle cycle)
{
    const bool was_empty = fetch_->queueEmpty();
    const std::uint64_t before = fetch_->activity();
    fetch_->tick(cycle);
    const std::uint64_t moved = fetch_->activity() - before;
    activity_ += moved;
    if (was_empty && !fetch_->queueEmpty())
        issueWake_ = std::min(issueWake_, cycle);
    // With the window empty, commit's stall attribution is fetch's:
    // a formed or landed group can change it, or move its boundary.
    if (window_.empty() && moved) {
        commitWake_ = std::min(
            commitWake_,
            fetch_->fetchBlockReason(cycle + 1) != commitSpan_.slot
                ? cycle
                : fetch_->blockReasonChangesAt(cycle));
    }
    if (gateStages_)
        fetchWake_ = fetch_->nextWorkCycle(cycle + 1);
}

void
Core::tick(Cycle cycle)
{
    if (!spansOpen_)
        openSpans(cycle);
    accountedEnd_ = cycle + 1;
    ++ticks_;
    sampleOccupancy(cycle + 1);
    const auto due = [this](Stage stage, bool awake) {
        stageRuns_[static_cast<unsigned>(stage)] += awake;
        return awake;
    };
    if (due(Stage::Commit, cycle >= commitWake_))
        commitStage(cycle);
    if (due(Stage::Lsq, cycle >= lsqWake_))
        lsqStage(cycle);
    if (!pendingStores_.empty())
        pendingStoreStage(cycle);
    if (due(Stage::Execute, cycle >= execWake_))
        executeStage(cycle);
    if (due(Stage::Dispatch, cycle >= dispatchWake_))
        dispatchStage(cycle);
    if (due(Stage::Issue, cycle >= issueWake_))
        issueStage(cycle);
    if (due(Stage::Fetch, cycle >= fetchWake_))
        fetchStage(cycle);
}

void
Core::setStageGating(bool on)
{
    gateStages_ = on;
    wakeAll();
}

void
Core::wakeAll()
{
    commitWake_ = lsqWake_ = execWake_ = dispatchWake_ = issueWake_ =
        fetchWake_ = 0;
}

void
Core::openSpans(Cycle cycle)
{
    spansOpen_ = true;
    accountedEnd_ = occEnd_ = cycle;
    commitSpan_.since = cycle;
    issueSpan_.since = cycle;
    std::fill(occCycles_.begin(), occCycles_.end(), 0);
    commitLatency_.fill(0);
    for (unsigned i = 0; i < kNumRs; ++i) {
        occHeld_[i] = rs_[i] ? static_cast<std::uint32_t>(
                                   rs_[i]->occupancy())
                             : 0;
    }
    occHeld_[kOccLq] = static_cast<std::uint32_t>(lsq_->lqSize());
    occHeld_[kOccSq] = static_cast<std::uint32_t>(lsq_->sqSize());
}

void
Core::settle()
{
    if (!spansOpen_)
        return;
    closeCommitSpan(accountedEnd_);
    closeIssueSpan(accountedEnd_);
    sampleOccupancy(accountedEnd_);
    for (unsigned i = 0; i < kNumOcc; ++i) {
        if (i < kNumRs && !rs_[i])
            continue; // absent in this station layout.
        const unsigned end = i + 1 < kNumOcc
            ? occBase_[i + 1]
            : static_cast<unsigned>(occCycles_.size());
        for (unsigned v = 0; occBase_[i] + v < end; ++v) {
            std::uint64_t &n = occCycles_[occBase_[i] + v];
            if (!n)
                continue;
            if (i < kNumRs)
                rs_[i]->sampleOccupancy(v, n);
            else if (i == kOccWindow)
                windowOccupancy_.sample(v, n);
            else if (i == kOccLq)
                lsq_->sampleLqOccupancy(v, n);
            else
                lsq_->sampleSqOccupancy(v, n);
            n = 0;
        }
    }
    for (unsigned v = 0; v < kCommitLatencySpan; ++v) {
        if (commitLatency_[v]) {
            fetchToCommit_.sample(v, commitLatency_[v]);
            commitLatency_[v] = 0;
        }
    }
}

void
Core::settle(Cycle through)
{
    if (!done())
        accountedEnd_ = through;
    settle();
}

bool
Core::done() const
{
    // Cheapest first: the kernel asks every visit, and mid-run the
    // window is almost never empty.
    return window_.empty() && fetch_->exhausted() && lsq_->drained();
}

inline Core::IssueBlock
Core::issueBlock() const
{
    if (fetch_->queueEmpty())
        return IssueBlock::FetchEmpty;
    const TraceRecord &rec = fetch_->front().rec;
    if (window_.full())
        return IssueBlock::WindowFull;
    if (rec.cls == InstrClass::Special &&
        params_.specialMode == SpecialInstrMode::Precise &&
        (!window_.empty() || !lsq_->drained())) {
        return IssueBlock::Serialize;
    }
    const bool need_int = rec.dst != kNoReg && !isFpReg(rec.dst);
    const bool need_fp = rec.dst != kNoReg && isFpReg(rec.dst);
    if (!rename_->canAllocate(need_int, need_fp))
        return IssueBlock::Rename;
    if (rec.isLoad() && lsq_->lqFull())
        return IssueBlock::LqFull;
    if (rec.isStore() && lsq_->sqFull())
        return IssueBlock::SqFull;
    if (rec.cls == InstrClass::Nop)
        return IssueBlock::None;
    // Station check mirrors stationFor() + the sibling fallback
    // without advancing the deal toggles: a dealt pair only blocks
    // when both stations are full.
    if (rec.isMem()) {
        return rs_[kRsA]->full() ? IssueBlock::StationFull
                                 : IssueBlock::None;
    }
    if (rec.isBranch()) {
        return rs_[kRsBr]->full() ? IssueBlock::StationFull
                                  : IssueBlock::None;
    }
    if (isFpClass(rec.cls)) {
        if (params_.unifiedRs) {
            return rs_[kRsF0]->full() ? IssueBlock::StationFull
                                      : IssueBlock::None;
        }
        return (rs_[kRsF0]->full() && rs_[kRsF1]->full())
            ? IssueBlock::StationFull
            : IssueBlock::None;
    }
    if (params_.unifiedRs) {
        return rs_[kRsE0]->full() ? IssueBlock::StationFull
                                  : IssueBlock::None;
    }
    return (rs_[kRsE0]->full() && rs_[kRsE1]->full())
        ? IssueBlock::StationFull
        : IssueBlock::None;
}

void
Core::chargeIssueStalls(IssueBlock block, std::uint64_t cycles)
{
    // Split a full-stall run over a dealt station pair exactly as n
    // consecutive stationFor() calls would: the toggle picks the
    // noteFullStall target and advances every blocked cycle.
    auto dealt_stalls = [&](RsId even_rs, RsId odd_rs,
                            unsigned &toggle) {
        const std::uint64_t odd =
            cycles / 2 + ((cycles & 1) && (toggle & 1) ? 1 : 0);
        if (odd)
            rs_[odd_rs]->noteFullStall(odd);
        if (cycles - odd)
            rs_[even_rs]->noteFullStall(cycles - odd);
        toggle = static_cast<unsigned>(toggle + cycles);
    };

    switch (block) {
      case IssueBlock::None:
        break; // unreachable under nextWorkCycle(); nothing to do.
      case IssueBlock::FetchEmpty:
        fetchEmptyStalls_ += cycles;
        break;
      case IssueBlock::WindowFull:
        windowFullStalls_ += cycles;
        break;
      case IssueBlock::Serialize:
        serializeStalls_ += cycles;
        break;
      case IssueBlock::Rename:
        rename_->noteStall(cycles);
        break;
      case IssueBlock::LqFull:
        lsq_->noteLqFullStall(cycles);
        break;
      case IssueBlock::SqFull:
        lsq_->noteSqFullStall(cycles);
        break;
      case IssueBlock::StationFull: {
        const TraceRecord &rec = fetch_->front().rec;
        if (rec.isMem()) {
            rs_[kRsA]->noteFullStall(cycles);
        } else if (rec.isBranch()) {
            rs_[kRsBr]->noteFullStall(cycles);
        } else if (isFpClass(rec.cls)) {
            if (params_.unifiedRs)
                rs_[kRsF0]->noteFullStall(cycles);
            else
                dealt_stalls(kRsF0, kRsF1, rsfToggle_);
        } else {
            if (params_.unifiedRs)
                rs_[kRsE0]->noteFullStall(cycles);
            else
                dealt_stalls(kRsE0, kRsE1, rseToggle_);
        }
        break;
      }
    }
}

Cycle
Core::nextWorkCycle(Cycle now) const
{
    // An injected commit stall keeps the whole run on the reference
    // per-cycle path (watchdog/exit-code contracts are exercised
    // against plain ticking).
    if (commitStallAt_ != kCycleNever)
        return now;

    const Cycle cand = std::min({commitWake_, lsqWake_, execWake_,
                                 dispatchWake_, issueWake_, fetchWake_});
    if (cand <= now)
        return now;

    // Pending stores transition as soon as their data producer's
    // actual readiness is known (pendingStoreStage has no time gate).
    for (std::uint64_t seq : pendingStores_) {
        if (actualReadyOf(window_.entry(seq).src2Prod) != kCycleNever)
            return now;
    }
    return cand;
}

std::vector<RecentCommit>
Core::recentCommits() const
{
    std::vector<RecentCommit> out;
    out.reserve(kRecentCommits);
    for (unsigned i = 0; i < kRecentCommits; ++i) {
        const RecentCommit &rc =
            recent_[(recentNext_ + i) % kRecentCommits];
        if (rc.seq != 0)
            out.push_back(rc);
    }
    return out;
}


void
Core::checkpoint(ckpt::Archive &ar)
{
    bpred_->checkpoint(ar);
    fetch_->checkpoint(ar);
    lsq_->checkpoint(ar);
    rename_->checkpoint(ar);
    window_.checkpoint(ar);
    for (auto &rs : rs_) {
        if (rs)
            rs->checkpoint(ar);
    }
    // The indices a window entry carries into other structures.
    for (std::uint64_t seq = window_.headSeq(); seq < window_.nextSeq();
         ++seq) {
        const WindowEntry &e = window_.entry(seq);
        ar.require(e.rsId < kNumRs && rs_[e.rsId],
                   "window entry names a reservation station this "
                   "machine does not have");
        if (e.rec.isMem()) {
            const unsigned slots = e.rec.isLoad()
                ? params_.loadQueueEntries : params_.storeQueueEntries;
            ar.require(e.lsqIndex >= 0 &&
                           static_cast<unsigned>(e.lsqIndex) < slots,
                       "window entry's load/store queue index out of "
                       "range");
        }
    }
    ar.fixed32(static_cast<std::uint32_t>(units_.size()),
               "execution-unit count differs");
    for (ExecUnit &u : units_)
        u.checkpoint(ar);
    for (std::uint64_t &p : lastProducer_)
        ar.u64(p);
    ar.u64Vec(pendingStores_);
    ar.u32(rseToggle_);
    ar.u32(rsfToggle_);
    ar.u64(lastCommitCycle_);
    ar.u64(rawIssued_);
    ar.u64(rawCommitted_);
    ar.u32(recentNext_);
    ar.require(recentNext_ < kRecentCommits,
               "recent-commit cursor out of range");
    for (RecentCommit &rc : recent_) {
        ar.u64(rc.seq);
        ar.u64(rc.pc);
        ar.u64(rc.cycle);
    }
    // The sequence numbers the stations, the execute pipelines and
    // the pending stores hold name entries in the window.
    for (unsigned i = 0; i < kNumRs; ++i) {
        if (!rs_[i])
            continue;
        for (std::uint64_t seq : rs_[i]->seqs()) {
            const WindowEntry *e =
                window_.contains(seq) ? &window_.entry(seq) : nullptr;
            ar.require(e && e->rsId == i &&
                           (e->state == InstrState::Waiting ||
                            e->state == InstrState::InFlight),
                       "reservation-station entry names no waiting "
                       "window entry of its station");
        }
    }
    for (const ExecUnit &u : units_) {
        for (const PendingExec &p : u.pending()) {
            ar.require(window_.contains(p.seq),
                       "execute pipeline entry outside the window");
        }
    }
    for (std::uint64_t seq : pendingStores_) {
        ar.require(window_.contains(seq) &&
                       window_.entry(seq).rec.isStore(),
                   "pending store names no store in the window");
    }
    if (ar.loading()) {
        // Derived scheduling and accounting state starts afresh.
        spansOpen_ = false;
        wakeAll();
    }
}

} // namespace s64v
