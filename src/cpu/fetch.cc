#include "cpu/fetch.hh"

#include "ckpt/snapshot.hh"
#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace s64v
{

FetchUnit::FetchUnit(const CoreParams &params, CpuId cpu,
                     BranchPredictor &bpred, MemSystem &mem,
                     stats::Group *parent)
    : params_(params), cpu_(cpu), bpred_(bpred), mem_(mem),
      statGroup_("fetch", parent),
      groups_(statGroup_.scalar("groups", "fetch groups formed")),
      instrsFetched_(statGroup_.scalar("instrs",
                                       "instructions fetched")),
      takenBubbleCycles_(statGroup_.scalar("taken_bubbles",
                                           "bubble cycles after "
                                           "predicted-taken "
                                           "branches")),
      icacheStallGroups_(statGroup_.scalar("icache_miss_groups",
                                           "groups delayed by L1I "
                                           "misses")),
      mispredictStalls_(statGroup_.scalar("mispredict_stalls",
                                          "fetch stalls entered for "
                                          "mispredicted branches"))
{
}

void
FetchUnit::setSource(VectorTraceSource *source)
{
    source_ = source;
}

void
FetchUnit::redirect(Cycle resolve_cycle)
{
    if (!stalledOnBranch_)
        panic("fetch redirect without a pending mispredict");
    stalledOnBranch_ = false;
    branchRecovery_ = true;
    nextGroupStart_ = std::max(nextGroupStart_,
                               resolve_cycle +
                                   params_.mispredictRedirect);
}

obs::CommitSlot
FetchUnit::fetchBlockReason(Cycle cycle) const
{
    if (stalledOnBranch_ || branchRecovery_)
        return obs::CommitSlot::BranchSquash;
    if (cycle < missBlockedUntil_)
        return missBlockReason_;
    return obs::CommitSlot::FetchEmpty;
}

void
FetchUnit::formGroup(Cycle cycle)
{
    Group group;
    TraceRecord rec;
    if (!source_->peek(rec))
        return;

    const Addr line_base = alignDown(rec.pc, params_.fetchBytes);
    const unsigned max_instrs = params_.fetchBytes / 4;
    group.instrs.reserve(max_instrs);
    Addr prev_pc = rec.pc - 4;
    bool ends_taken = false;

    while (group.instrs.size() < max_instrs && source_->peek(rec)) {
        if (!group.instrs.empty()) {
            if (alignDown(rec.pc, params_.fetchBytes) != line_base)
                break; // crossed the fetch-block boundary.
            if (rec.pc != prev_pc + 4)
                break; // control-flow discontinuity (trap entry).
        }
        source_->pop();

        FetchedInstr fi;
        fi.rec = rec;
        if (rec.isCondBranch()) {
            fi.predictedTaken = bpred_.predict(rec.pc, rec.taken());
            fi.mispredicted = fi.predictedTaken != rec.taken();
        } else if (rec.isBranch()) {
            // Unconditional transfers: target known from the BTB/RAS;
            // modelled as always predicted correctly.
            fi.predictedTaken = true;
            fi.mispredicted = false;
        }
        prev_pc = rec.pc;
        group.instrs.push_back(fi);
        ++instrsFetched_;

        if (fi.rec.isBranch()) {
            if (fi.mispredicted) {
                stalledOnBranch_ = true;
                ++mispredictStalls_;
            } else if (fi.predictedTaken || fi.rec.taken()) {
                ends_taken = true;
            }
            break;
        }
    }

    if (group.instrs.empty())
        return;
    ++groups_;
    ++activity_;
    inflightInstrs_ += group.instrs.size();

    // L1I access for the block; the two non-access pipe stages
    // (priority + validate) are added on top of the cache time.
    const AccessResult res = mem_.fetch(cpu_, line_base, cycle);
    group.availableAt = res.ready + 2;
    if (!res.l1Hit || res.tlbMiss) {
        // The stall-attribution window lasts until the group lands.
        // Priority follows the §4.2 differential ladder: an L2 miss
        // dominates the TLB walk dominates the L1I refill.
        missBlockedUntil_ = std::max(missBlockedUntil_,
                                     group.availableAt);
        missBlockReason_ = (!res.l1Hit && !res.l2Hit)
            ? obs::CommitSlot::L2Miss
            : (res.tlbMiss ? obs::CommitSlot::TlbMiss
                           : obs::CommitSlot::L1IMiss);
    }

    Cycle next = cycle + 1;
    if (!res.l1Hit) {
        // In-order fetch: the next group starts once the line is in.
        ++icacheStallGroups_;
        next = std::max(next, res.ready);
    }
    if (ends_taken && !stalledOnBranch_) {
        next += params_.bpred.takenBubbles;
        takenBubbleCycles_ += params_.bpred.takenBubbles;
    }
    nextGroupStart_ = std::max(nextGroupStart_, next);

    inflight_.push_back(std::move(group));
}

void
FetchUnit::tick(Cycle cycle)
{
    if (!source_)
        panic("fetch unit has no trace source");

    // Land groups whose fetch pipeline completed.
    while (!inflight_.empty() &&
           inflight_.front().availableAt <= cycle) {
        for (FetchedInstr &fi : inflight_.front().instrs)
            queue_.push_back(fi);
        inflightInstrs_ -= inflight_.front().instrs.size();
        inflight_.pop_front();
        ++activity_;
    }
    // Once redirected fetch delivers, the squash is recovered from.
    if (branchRecovery_ && !queue_.empty())
        branchRecovery_ = false;

    // Start at most one new group per cycle.
    if (stalledOnBranch_ || cycle < nextGroupStart_)
        return;
    if (queue_.size() + inflightInstrs_ + params_.fetchBytes / 4 >
        params_.fetchQueueEntries)
        return;
    formGroup(cycle);
}


void
FetchUnit::checkpoint(ckpt::Archive &ar)
{
    const auto fetched = [&](FetchedInstr &f) {
        ar.bytes(&f.rec, sizeof(f.rec));
        ar.require(recordValid(f.rec), "fetched record has an "
                                       "out-of-range class or register");
        ar.boolean(f.predictedTaken);
        ar.boolean(f.mispredicted);
    };
    // Every count is bounded by the structure's capacity before its
    // entries are read, and the fetched instructions as they add up:
    // a group holds at most one fetch block, and queued plus
    // in-flight instructions fit the fetch queue (a group starts only
    // when it fits, and is never empty).
    const std::uint64_t room = params_.fetchQueueEntries;
    std::uint64_t held = 0;
    ar.list(
        inflight_,
        [&](Group &g) {
            ar.u64(g.availableAt);
            ar.list(g.instrs, fetched, params_.fetchBytes / 4,
                    "fetch group larger than a fetch block");
            held += g.instrs.size();
            ar.require(held <= room,
                       "fetched instructions exceed the fetch queue");
        },
        room, "in-flight fetch groups exceed the fetch queue");
    ar.list(queue_, fetched, room - held,
            "fetched instructions exceed the fetch queue");
    if (ar.loading())
        inflightInstrs_ = held;
    ar.u64(nextGroupStart_);
    ar.boolean(stalledOnBranch_);
    ar.boolean(branchRecovery_);
    ar.u64(missBlockedUntil_);
    auto reason = static_cast<std::uint8_t>(missBlockReason_);
    ar.u8(reason);
    ar.require(reason < obs::kNumCommitSlots,
               "fetch miss-block reason out of range");
    missBlockReason_ = static_cast<obs::CommitSlot>(reason);
}

} // namespace s64v
