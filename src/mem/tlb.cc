#include "mem/tlb.hh"

#include "ckpt/snapshot.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"

namespace s64v
{

Tlb::Tlb(const TlbParams &params, const std::string &name,
         stats::Group *parent)
    : params_(params), statGroup_(name, parent),
      accesses_(statGroup_.scalar("accesses", "translations")),
      misses_(statGroup_.scalar("misses", "table walks"))
{
    if (params_.assoc == 0 || params_.entries % params_.assoc != 0)
        fatal("tlb '%s': bad geometry %u/%u", name.c_str(),
              params_.entries, params_.assoc);
    numSets_ = params_.entries / params_.assoc;
    if (!isPowerOf2(numSets_))
        fatal("tlb '%s': set count %u not a power of two",
              name.c_str(), numSets_);
    entries_.resize(params_.entries);
    statGroup_.formula("miss_ratio", "misses / accesses",
                       [this] { return missRatio(); });
}

unsigned
Tlb::translate(Addr addr, Cycle cycle)
{
    (void)cycle;
    ++accesses_;
    const Addr vpn = addr / params_.pageBytes;
    const unsigned set = static_cast<unsigned>(vpn & (numSets_ - 1));
    Entry *base = &entries_[static_cast<std::size_t>(set) *
                            params_.assoc];

    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].vpn == vpn) {
            base[w].lru = ++lruTick_;
            return 0;
        }
    }

    ++misses_;
    Entry *victim = base;
    for (unsigned w = 1; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->vpn = vpn;
    victim->valid = true;
    victim->lru = ++lruTick_;
    return params_.walkLatency;
}

double
Tlb::missRatio() const
{
    const std::uint64_t a = accesses_.value();
    return a ? static_cast<double>(misses_.value()) / a : 0.0;
}

void
Tlb::checkpoint(ckpt::Archive &ar)
{
    ar.u64(lruTick_);
    ar.fixed64(entries_.size(), "TLB geometry differs (sets*ways)");
    for (Entry &e : entries_) {
        ar.u64(e.vpn);
        ar.boolean(e.valid);
        ar.u64(e.lru);
    }
}

} // namespace s64v
