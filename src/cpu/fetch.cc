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
      ring_(params.fetchQueueEntries),
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
    if (ring_.empty())
        fatal("fetchQueueEntries is 0: the fetch queue needs at least "
              "one entry");
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
    TraceRecord rec;
    if (!source_->peek(rec))
        return;

    const Addr line_base = alignDown(rec.pc, params_.fetchBytes);
    const std::size_t first = held_;
    const std::size_t last = first + params_.fetchBytes / 4;
    Addr prev_pc = rec.pc - 4;
    bool ends_taken = false;

    while (held_ < last && source_->peek(rec)) {
        if (held_ != first) {
            if (alignDown(rec.pc, params_.fetchBytes) != line_base)
                break; // crossed the fetch-block boundary.
            if (rec.pc != prev_pc + 4)
                break; // control-flow discontinuity (trap entry).
        }
        source_->pop();

        FetchedInstr &fi = ring_[slotOf(held_++)];
        fi = FetchedInstr{};
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

    if (held_ == first)
        return;
    ++groups_;
    ++activity_;

    // L1I access for the block; the two non-access pipe stages
    // (priority + validate) are added on top of the cache time.
    const AccessResult res = mem_.fetch(cpu_, line_base, cycle);
    const Cycle lands = res.ready + 2;
    for (std::size_t i = first; i < held_; ++i)
        ring_[slotOf(i)].availableAt = lands;
    if (!res.l1Hit || res.tlbMiss) {
        // The stall-attribution window lasts until the group lands.
        // Priority follows the §4.2 differential ladder: an L2 miss
        // dominates the TLB walk dominates the L1I refill.
        missBlockedUntil_ = std::max(missBlockedUntil_, lands);
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
}

void
FetchUnit::tick(Cycle cycle)
{
    if (!source_)
        panic("fetch unit has no trace source");

    // Land the in-flight instructions whose group's fetch pipeline
    // completed, from the front only: a group never passes the one
    // ahead of it.
    while (queued_ < held_ &&
           ring_[slotOf(queued_)].availableAt <= cycle) {
        ++queued_;
        ++activity_;
    }
    // Once redirected fetch delivers, the squash is recovered from.
    if (branchRecovery_ && queued_ != 0)
        branchRecovery_ = false;

    // Start at most one new group per cycle.
    if (stalledOnBranch_ || cycle < nextGroupStart_)
        return;
    if (held_ + params_.fetchBytes / 4 > ring_.size())
        return;
    formGroup(cycle);
}

void
FetchUnit::checkpoint(ckpt::Archive &ar)
{
    // The held instructions, oldest first: the landed ones, then the
    // groups in flight. Both counts are bounded by the fetch queue
    // before an entry is read; a read places the entries from slot 0.
    std::uint64_t held = held_;
    std::uint64_t queued = queued_;
    ar.u64(held);
    ar.require(held <= ring_.size(),
               "fetched instructions exceed the fetch queue");
    ar.u64(queued);
    ar.require(queued <= held,
               "landed instructions exceed the fetched ones");
    if (ar.loading()) {
        head_ = 0;
        held_ = held;
        queued_ = queued;
    }
    for (std::size_t i = 0; i < held_; ++i) {
        FetchedInstr &f = ring_[slotOf(i)];
        ar.bytes(&f.rec, sizeof(f.rec));
        ar.require(recordValid(f.rec), "fetched record has an "
                                       "out-of-range class or register");
        ar.u64(f.availableAt);
        ar.boolean(f.predictedTaken);
        ar.boolean(f.mispredicted);
    }
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
