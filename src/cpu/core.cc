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
          0.0, 256.0, 32))
{
    // Occupancies and commit latencies are small integers: tally them
    // (see stats::Distribution) over the range the structure allows.
    windowOccupancy_.setTallyRange(params.windowEntries + 1);
    fetchToCommit_.setTallyRange(
        static_cast<std::size_t>(fetchToCommit_.hi()));
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
Core::predReadyOf(std::uint64_t prod_seq, Cycle now) const
{
    if (prod_seq == 0 || !window_.contains(prod_seq))
        return 0; // committed or no producer: ready.
    const WindowEntry &e = window_.entry(prod_seq);
    if (e.missKnownAt <= now)
        return e.actualReady; // cancel broadcast arrived.
    return e.predReady;
}

Cycle
Core::actualReadyOf(std::uint64_t prod_seq) const
{
    if (prod_seq == 0 || !window_.contains(prod_seq))
        return 0;
    return window_.entry(prod_seq).actualReady;
}

bool
Core::sourcesDispatchable(const WindowEntry &e, Cycle now,
                          Cycle exec_start) const
{
    // Stores gate address generation on the address source only; the
    // data register is checked before commit (pendingStoreStage).
    const bool store = e.rec.isStore();
    if (params_.speculativeDispatch) {
        if (predReadyOf(e.src1Prod, now) > exec_start)
            return false;
        if (!store && predReadyOf(e.src2Prod, now) > exec_start)
            return false;
        return true;
    }
    // Without speculative dispatch only confirmed-ready sources allow
    // dispatch (deep-pipeline bubbles are fully exposed).
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
    window_.setState(e, InstrState::Waiting);
    e.predReady = kCycleNever;
    e.actualReady = kCycleNever;
    e.missKnownAt = kCycleNever;
    // Cancelled operations re-enter selection after the pipeline
    // recovers, not on the very next cycle.
    e.notBefore = now + params_.dispatchToExec;
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
    if (cycle >= commitStallAt_) {
        // Injected retirement freeze: leave everything in the window
        // so the deadlock propagates upstream naturally.
        if (!window_.empty())
            ++commitIdleCycles_;
        cpiStack_.account(obs::CommitSlot::Serialize,
                          params_.commitWidth);
        return;
    }
    unsigned n = 0;
    while (n < params_.commitWidth && !window_.empty()) {
        WindowEntry &e = window_.head();
        if (e.state != InstrState::Done || e.doneCycle > cycle)
            break;
        if (e.rec.isStore())
            lsq_->commitStore(e.lsqIndex);
        else if (e.rec.isLoad())
            lsq_->freeLoad(e.lsqIndex);
        rename_->release(e.usesIntRename, e.usesFpRename);
        ++committed_;
        if (e.rec.isLoad())
            ++committedLoads_;
        if (e.rec.isStore())
            ++committedStores_;
        if (e.rec.isBranch())
            ++committedBranches_;
        fetchToCommit_.tally(cycle - e.issueCycle);
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
        window_.retireHead();
        ++n;
        ++activity_;
    }
    if (n == 0 && !window_.empty())
        ++commitIdleCycles_;

    // Commit-slot accounting: every slot of every ticked cycle goes
    // to exactly one bucket, so totals always sum to commitWidth *
    // ticked cycles and the committed bucket mirrors committed_.
    cpiStack_.account(obs::CommitSlot::Committed, n);
    if (n < params_.commitWidth) {
        cpiStack_.account(classifyCommitStall(cycle),
                          params_.commitWidth - n);
    }
}

void
Core::loadCompletionStage(Cycle cycle)
{
    (void)cycle;
    for (const LoadCompletion &lc : lsq_->completedLoads()) {
        if (!window_.contains(lc.seq))
            panic("load completion for retired instruction");
        WindowEntry &e = window_.entry(lc.seq);
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
        window_.setState(e, InstrState::Done);
        ++activity_;
    }
    lsq_->completedLoads().clear();
}

void
Core::pendingStoreStage(Cycle cycle)
{
    (void)cycle;
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
        window_.setState(e, InstrState::Done);
        ++activity_;
        it = pendingStores_.erase(it);
    }
}

void
Core::performExec(WindowEntry &e, Cycle exec_start, ExecUnit &unit)
{
    ++activity_;
    e.execCycle = exec_start;
    rs_[e.rsId]->remove(e.seq);
    rs_[e.rsId]->noteDispatch();

    const InstrClass cls = e.rec.cls;
    switch (cls) {
      case InstrClass::Load:
        lsq_->setAddress(e.lsqIndex, false, e.rec.ea, exec_start);
        window_.setState(e, InstrState::Executing);
        break;
      case InstrClass::Store:
        lsq_->setAddress(e.lsqIndex, true, e.rec.ea, exec_start);
        e.predReady = exec_start; // agen time (see pendingStoreStage).
        window_.setState(e, InstrState::Executing);
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
        if (e.mispredicted)
            fetch_->redirect(exec_start);
        e.doneCycle = exec_start;
        e.actualReady = exec_start + forwardDelay();
        e.predReady = e.actualReady;
        window_.setState(e, InstrState::Done);
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
        window_.setState(e, InstrState::Done);
        if (isUnpipelined(cls) ||
            (cls == InstrClass::Special &&
             params_.specialMode == SpecialInstrMode::FixedPenalty)) {
            unit.occupyUntil(exec_start + lat);
        }
        break;
      }
    }
}

void
Core::executeStage(Cycle cycle)
{
    for (ExecUnit &unit : units_) {
        dueScratch_.clear();
        unit.collectDue(cycle, dueScratch_);
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
            performExec(e, pe.execStart, unit);
        }
    }
}

void
Core::dispatchStage(Cycle cycle)
{
    const Cycle exec_start = cycle + params_.dispatchToExec;

    auto base_ok = [&](std::uint64_t seq) {
        const WindowEntry &e = window_.entry(seq);
        return e.state == InstrState::Waiting &&
            cycle >= e.notBefore &&
            sourcesDispatchable(e, cycle, exec_start);
    };

    auto dispatch_to = [&](std::uint64_t seq, ExecUnit &unit) {
        ++activity_;
        WindowEntry &e = window_.entry(seq);
        window_.setState(e, InstrState::InFlight);
        e.dispatchCycle = cycle;
        unit.push(seq, exec_start);
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
                    ((!used[0] && pair[0]->available(exec_start)) ||
                     (!used[1] && pair[1]->available(exec_start)));
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
                    return base_ok(seq) && u.available(exec_start);
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
}

void
Core::issueStage(Cycle cycle)
{
    for (unsigned n = 0; n < params_.issueWidth; ++n) {
        const IssueBlock block = issueBlock();
        if (block != IssueBlock::None) {
            // An empty fetch queue stalls the cycle only when nothing
            // issued in it.
            if (block != IssueBlock::FetchEmpty || n == 0)
                chargeIssueStalls(block, 1);
            return;
        }
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
        if (rec.isLoad())
            e.lsqIndex = lsq_->allocateLoad(e.seq);
        else if (rec.isStore())
            e.lsqIndex = lsq_->allocateStore(e.seq);
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
            window_.setState(e, InstrState::Done);
            e.doneCycle = cycle;
            e.predReady = e.actualReady = cycle + 1;
        } else {
            e.rsId = static_cast<std::uint8_t>(rsid);
            station->insert(e.seq);
            window_.setState(e, InstrState::Waiting);
        }
        fetch_->popFront();
    }
}

void
Core::tick(Cycle cycle)
{
    // Sum of the monotone activity counters (pipeline transitions,
    // LSQ arbitration, fetch-group traffic): any movement marks this
    // tick as "worked" for the nextWorkCycle() fast path.
    const std::uint64_t a0 =
        activity_ + lsq_->activity() + fetch_->activity();
    windowOccupancy_.tally(window_.size());
    for (const auto &station : rs_) {
        if (station)
            station->tallyOccupancy();
    }
    commitStage(cycle);
    lsq_->tick(cycle);
    loadCompletionStage(cycle);
    pendingStoreStage(cycle);
    executeStage(cycle);
    dispatchStage(cycle);
    issueStage(cycle);
    fetch_->tick(cycle);
    workedLastTick_ =
        activity_ + lsq_->activity() + fetch_->activity() != a0;
}

bool
Core::done() const
{
    return fetch_->exhausted() && window_.empty() && lsq_->drained();
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
Core::sourceFlipCycle(const WindowEntry &p, Cycle from,
                      unsigned d2e) const
{
    Cycle best = kCycleNever;
    // Optimistic schedule, in effect for cycles < missKnownAt.
    if (p.predReady != kCycleNever) {
        Cycle t = p.predReady > d2e ? p.predReady - d2e : 0;
        if (t < from)
            t = from;
        if (t < p.missKnownAt && t < best)
            best = t;
    }
    // Confirmed schedule, in effect from missKnownAt on.
    if (p.missKnownAt != kCycleNever &&
        p.actualReady != kCycleNever) {
        Cycle t = p.actualReady > d2e ? p.actualReady - d2e : 0;
        if (t < p.missKnownAt)
            t = p.missKnownAt;
        if (t < from)
            t = from;
        if (t < best)
            best = t;
    }
    return best;
}

Cycle
Core::dispatchCandidate(const WindowEntry &e, Cycle now) const
{
    Cycle t = e.notBefore > now ? e.notBefore : now;
    const unsigned d2e = params_.dispatchToExec;
    const bool store = e.rec.isStore();
    const std::uint64_t prods[2] = {e.src1Prod,
                                    store ? 0 : e.src2Prod};
    for (std::uint64_t prod : prods) {
        if (prod == 0 || !window_.contains(prod))
            continue;
        const WindowEntry &p = window_.entry(prod);
        Cycle flip;
        if (params_.speculativeDispatch) {
            flip = sourceFlipCycle(p, now, d2e);
        } else if (p.actualReady == kCycleNever) {
            flip = kCycleNever;
        } else {
            flip = p.actualReady > d2e ? p.actualReady - d2e : 0;
        }
        if (flip > t)
            t = flip;
    }
    return t;
}

Cycle
Core::nextWorkCycle(Cycle now) const
{
    // An injected commit stall keeps the whole run on the reference
    // per-cycle path (watchdog/exit-code contracts are exercised
    // against plain ticking).
    if (commitStallAt_ != kCycleNever)
        return now;

    // Fast path: a pipeline that just moved an instruction almost
    // always moves another next cycle. Claiming work at `now` is
    // always safe (it can only shrink the skip), and it spares the
    // window scan below on the busy cycles that dominate a run.
    if (workedLastTick_)
        return now;

    Cycle cand = kCycleNever;
    const auto consider = [&](Cycle c) {
        if (c < cand)
            cand = c;
    };

    // Cheap sources first: every branch below answers "work at now"
    // identically wherever it is evaluated, so ordering is free to
    // put the O(window) dispatch scan last, where the common pinned
    // cases (due execs, landable groups, issuable front) bail out
    // before it runs.

    // Commit of the window head.
    if (!window_.empty() &&
        window_.head().state == InstrState::Done) {
        const Cycle c = window_.head().doneCycle;
        if (c <= now)
            return now;
        consider(c);
    }

    // Execute pipelines reach their due stage.
    for (const ExecUnit &u : units_) {
        const Cycle c = u.nextExecStart();
        if (c == kCycleNever)
            continue;
        if (c <= now)
            return now;
        consider(c);
    }

    // LSQ arbitration, FIFO store release, load completions.
    {
        const Cycle c = lsq_->nextWorkCycle(now);
        if (c <= now)
            return now;
        consider(c);
    }

    // Pending stores transition as soon as their data producer's
    // actual readiness is known (pendingStoreStage has no time gate).
    for (std::uint64_t seq : pendingStores_) {
        if (actualReadyOf(window_.entry(seq).src2Prod) != kCycleNever)
            return now;
    }

    // Issue of the fetch-queue front.
    if (!fetch_->queueEmpty() && issueBlock() == IssueBlock::None)
        return now;

    // Fetch pipeline, incl. the fetchBlockReason() boundary.
    {
        const Cycle c = fetch_->nextWorkCycle(now);
        if (c <= now)
            return now;
        consider(c);
    }

    // Dispatch of waiting entries (incl. speculative re-dispatch on
    // the optimistic schedule before a miss-cancel broadcast). The
    // waiting mask iterates set bits only; candidates combine via
    // min, so the slot-order walk is equivalent to the seq walk.
    bool pinned = false;
    window_.forEachWaiting([&](const WindowEntry &e) -> bool {
        const Cycle c = dispatchCandidate(e, now);
        if (c <= now) {
            pinned = true;
            return false;
        }
        consider(c);
        return true;
    });
    if (pinned)
        return now;

    return cand;
}

void
Core::elide(Cycle from, std::uint64_t cycles)
{
    // Per-cycle occupancy samples.
    windowOccupancy_.sample(static_cast<double>(window_.size()),
                            cycles);
    for (const auto &station : rs_) {
        if (station)
            station->sampleOccupancy(cycles);
    }
    // Commit-slot accounting: zero retirements in the window, one
    // dominant stall reason — constant across the span because
    // nextWorkCycle() bounds every classification boundary.
    if (!window_.empty())
        commitIdleCycles_ += cycles;
    cpiStack_.account(classifyCommitStall(from),
                      params_.commitWidth * cycles);
    lsq_->elide(cycles);
    chargeIssueStalls(issueBlock(), cycles);
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
Core::saveState(ckpt::SnapshotWriter &w) const
{
    bpred_->saveState(w);
    fetch_->saveState(w);
    lsq_->saveState(w);
    rename_->saveState(w);
    window_.saveState(w);
    for (const auto &rs : rs_) {
        if (rs)
            rs->saveState(w);
    }
    w.putU32(static_cast<std::uint32_t>(units_.size()));
    for (const ExecUnit &u : units_)
        u.saveState(w);
    for (std::uint64_t p : lastProducer_)
        w.putU64(p);
    w.putU64Vec(pendingStores_);
    w.putU32(rseToggle_);
    w.putU32(rsfToggle_);
    w.putU64(lastCommitCycle_);
    w.putU64(rawIssued_);
    w.putU64(rawCommitted_);
    w.putU32(recentNext_);
    for (const RecentCommit &rc : recent_) {
        w.putU64(rc.seq);
        w.putU64(rc.pc);
        w.putU64(rc.cycle);
    }
}

void
Core::restoreState(ckpt::SnapshotReader &r)
{
    bpred_->restoreState(r);
    fetch_->restoreState(r);
    lsq_->restoreState(r);
    rename_->restoreState(r);
    window_.restoreState(r);
    for (auto &rs : rs_) {
        if (rs)
            rs->restoreState(r);
    }
    // The indices a window entry carries into other structures.
    for (std::uint64_t seq = window_.headSeq(); seq < window_.nextSeq();
         ++seq) {
        const WindowEntry &e = window_.entry(seq);
        r.require(e.rsId < kNumRs && rs_[e.rsId],
                  "window entry names a reservation station this "
                  "machine does not have");
        if (e.rec.isMem()) {
            const unsigned slots = e.rec.isLoad()
                ? params_.loadQueueEntries : params_.storeQueueEntries;
            r.require(e.lsqIndex >= 0 &&
                          static_cast<unsigned>(e.lsqIndex) < slots,
                      "window entry's load/store queue index out of "
                      "range");
        }
    }
    r.require(r.getU32() == units_.size(),
              "execution-unit count differs");
    for (ExecUnit &u : units_)
        u.restoreState(r);
    for (std::uint64_t &p : lastProducer_)
        p = r.getU64();
    pendingStores_ = r.getU64Vec();
    rseToggle_ = r.getU32();
    rsfToggle_ = r.getU32();
    lastCommitCycle_ = r.getU64();
    rawIssued_ = r.getU64();
    rawCommitted_ = r.getU64();
    recentNext_ = r.getU32();
    r.require(recentNext_ < kRecentCommits,
              "recent-commit cursor out of range");
    for (RecentCommit &rc : recent_) {
        rc.seq = r.getU64();
        rc.pc = r.getU64();
        rc.cycle = r.getU64();
    }
}

} // namespace s64v
