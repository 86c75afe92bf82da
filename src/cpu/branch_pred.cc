#include "cpu/branch_pred.hh"

#include "ckpt/snapshot.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"

namespace s64v
{

BranchPredictor::BranchPredictor(const BranchPredParams &params,
                                 stats::Group *parent)
    : params_(params), statGroup_("bpred", parent),
      lookups_(statGroup_.scalar("lookups", "direction predictions")),
      tableMisses_(statGroup_.scalar("table_misses",
                                     "lookups missing the BHT")),
      resolved_(statGroup_.scalar("resolved",
                                  "conditional branches resolved")),
      mispredicts_(statGroup_.scalar("mispredicts",
                                     "mispredicted conditional "
                                     "branches"))
{
    if (params_.assoc == 0 || params_.entries % params_.assoc != 0)
        fatal("bpred: bad geometry %u/%u", params_.entries,
              params_.assoc);
    numSets_ = params_.entries / params_.assoc;
    if (!isPowerOf2(numSets_))
        fatal("bpred: %u sets is not a power of two", numSets_);
    entries_.resize(params_.entries);
    statGroup_.formula("mispredict_ratio", "mispredicts / resolved",
                       [this] { return mispredictRatio(); });
}

unsigned
BranchPredictor::setIndex(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) & (numSets_ - 1));
}

Addr
BranchPredictor::tagOf(Addr pc) const
{
    return (pc >> 2) / numSets_;
}

bool
BranchPredictor::predict(Addr pc, bool actual_taken)
{
    ++lookups_;
    if (params_.perfect)
        return actual_taken;

    const unsigned set = setIndex(pc);
    const Addr tag = tagOf(pc);
    Entry *base = &entries_[static_cast<std::size_t>(set) *
                            params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lru = ++lruTick_;
            return base[w].counter >= 2;
        }
    }
    ++tableMisses_;
    return false; // miss: fall-through (not-taken) prediction.
}

void
BranchPredictor::update(Addr pc, bool taken)
{
    if (params_.perfect)
        return;

    const unsigned set = setIndex(pc);
    const Addr tag = tagOf(pc);
    Entry *base = &entries_[static_cast<std::size_t>(set) *
                            params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            if (taken && base[w].counter < 3)
                ++base[w].counter;
            else if (!taken && base[w].counter > 0)
                --base[w].counter;
            base[w].lru = ++lruTick_;
            return;
        }
    }

    // Allocate over LRU.
    Entry *victim = base;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->counter = taken ? 2 : 1;
    victim->lru = ++lruTick_;
}

void
BranchPredictor::noteOutcome(bool mispredicted)
{
    ++resolved_;
    if (mispredicted)
        ++mispredicts_;
}

double
BranchPredictor::mispredictRatio() const
{
    const std::uint64_t r = resolved_.value();
    return r ? static_cast<double>(mispredicts_.value()) / r : 0.0;
}


void
BranchPredictor::checkpoint(ckpt::Archive &ar)
{
    ar.u64(lruTick_);
    ar.fixed64(entries_.size(), "BHT geometry differs (sets*ways)");
    for (Entry &e : entries_) {
        ar.u64(e.tag);
        ar.u8(e.counter);
        ar.boolean(e.valid);
        ar.u64(e.lru);
    }
}

} // namespace s64v
