#include "mem/hierarchy.hh"

#include <algorithm>
#include <string>

#include "ckpt/snapshot.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"

namespace s64v
{

MemSystem::MemSystem(const MemParams &params, unsigned num_cpus,
                     stats::Group *parent)
    : params_(params)
{
    if (num_cpus == 0)
        fatal("memory system needs at least one CPU");

    coherence_ = std::make_unique<CoherenceController>(params_.snoop,
                                                       parent);
    bus_ = std::make_unique<Bus>(params_.bus, "bus", parent);
    memCtrl_ = std::make_unique<MemCtrl>(params_.memctrl, parent);

    for (unsigned i = 0; i < num_cpus; ++i) {
        auto pc = std::make_unique<PerCpu>();
        pc->group = std::make_unique<stats::Group>(
            "mem" + std::to_string(i), parent);
        pc->l1i = std::make_unique<TimedCache>(params_.l1i,
                                               pc->group.get());
        pc->l1d = std::make_unique<TimedCache>(params_.l1d,
                                               pc->group.get());
        pc->l2 = std::make_unique<TimedCache>(params_.l2,
                                              pc->group.get());
        pc->itlb = std::make_unique<Tlb>(params_.itlb, "itlb",
                                         pc->group.get());
        pc->dtlb = std::make_unique<Tlb>(params_.dtlb, "dtlb",
                                         pc->group.get());
        pc->prefetcher = std::make_unique<StreamPrefetcher>(
            params_.prefetch, "prefetch", pc->group.get());
        coherence_->addCluster(CacheCluster{pc->l1i.get(),
                                            pc->l1d.get(),
                                            pc->l2.get()});
        cpus_.push_back(std::move(pc));
    }
}

Addr
MemSystem::physAddr(Addr va)
{
    // 1-MiB placement granularity: large allocations (buffer pools,
    // indexes) stay physically contiguous inside a chunk -- which is
    // what makes direct-mapped conflict behaviour realistic -- while
    // distinct chunks scatter, so the power-of-two virtual bases of
    // the synthetic address space do not all alias to cache set 0.
    constexpr unsigned kChunkShift = 20;
    const Addr vcn = va >> kChunkShift;
    const Addr pcn = mix64(vcn) & ((Addr{1} << 31) - 1);
    return (pcn << kChunkShift) |
        (va & ((Addr{1} << kChunkShift) - 1));
}

Cycle
MemSystem::memoryPath(CpuId cpu, Addr addr, bool is_write, Cycle cycle)
{
    // Address/command phase on the shared bus (also carries the snoop
    // broadcast in SMP systems).
    const Cycle cmd_done = bus_->command(cycle);

    if (cpus_.size() > 1) {
        const Cycle snoop_done =
            cmd_done + params_.snoop.snoopLatency;
        bool dirty_supply = false;
        if (is_write) {
            dirty_supply = coherence_->invalidateOthers(cpu, addr);
        } else {
            dirty_supply = coherence_->snoopRead(cpu, addr) ==
                SnoopOutcome::DirtySupply;
        }
        if (dirty_supply) {
            // L2-to-L2 transfer: supplier read-out plus a bus data
            // phase for the full line.
            return bus_->transfer(
                snoop_done + params_.snoop.cacheToCache, kLineSize);
        }
        const Cycle data = memCtrl_->read(snoop_done);
        return bus_->transfer(data, kLineSize);
    }

    const Cycle data = memCtrl_->read(cmd_done);
    return bus_->transfer(data, kLineSize);
}

void
MemSystem::handleL2Eviction(CpuId cpu, const Eviction &ev, Cycle cycle)
{
    if (!ev.valid)
        return;
    // Inclusion: the L1 caches may not keep a line the L2 lost.
    coherence_->backInvalidate(cpu, ev.lineAddr);
    if (ev.dirty) {
        cpus_[cpu]->l2->noteWriteback();
        const Cycle bus_done = bus_->transfer(cycle, kLineSize);
        memCtrl_->write(bus_done);
    }
}

void
MemSystem::runPrefetches(CpuId cpu, const std::vector<Addr> &candidates,
                         Cycle cycle)
{
    PerCpu &pc = *cpus_[cpu];
    for (Addr addr : candidates) {
        if (pc.l2->array().probe(addr) || pc.l2->pending(addr, cycle))
            continue;
        const Cycle ready = memoryPath(cpu, addr, false, cycle);
        const Eviction ev = pc.l2->fill(addr, ready, false,
                                        /*prefetched=*/true);
        handleL2Eviction(cpu, ev, ready);
        pc.l2->notePrefetchIssued();
    }
}

void
MemSystem::upgradeShared(CpuId cpu, Addr addr, Cycle cycle)
{
    if (cpus_.size() > 1 && coherence_->othersHold(cpu, addr)) {
        bus_->command(cycle);
        coherence_->invalidateOthers(cpu, addr);
    }
}

Cycle
MemSystem::l2Access(CpuId cpu, Addr addr, bool is_write, Cycle cycle,
                    bool &l2_hit)
{
    PerCpu &pc = *cpus_[cpu];

    if (params_.perfectL2) {
        l2_hit = true;
        return cycle + params_.l2.totalLatency();
    }

    pc.l2->noteDemandAccess();
    prefetchScratch_.clear();
    pc.prefetcher->observe(addr, prefetchScratch_);

    const TimedCache::LookupResult res =
        pc.l2->lookup(addr, is_write, cycle);
    if (res.hit || res.merged) {
        l2_hit = res.hit;
        // A store hitting the line, or merging into an in-flight read
        // miss that did not invalidate the remote copies, dirties it
        // here.
        if (is_write)
            upgradeShared(cpu, addr, res.ready);
        runPrefetches(cpu, prefetchScratch_, cycle);
        return res.ready;
    }
    l2_hit = false;
    pc.l2->noteDemandMiss();

    const Cycle line_ready = memoryPath(cpu, addr, is_write,
                                        res.ready);
    const Eviction ev = pc.l2->fill(addr, line_ready, is_write);
    handleL2Eviction(cpu, ev, line_ready);
    // Prefetches launch when the demand request is observed, not
    // when its fill lands.
    runPrefetches(cpu, prefetchScratch_, cycle);
    return line_ready;
}

AccessResult
MemSystem::l1Access(CpuId cpu, Tlb &tlb, TimedCache &l1, Addr addr,
                    bool is_write, Cycle cycle)
{
    AccessResult out;

    const unsigned tlb_pen = params_.perfectTlb
        ? 0 : tlb.translate(addr, cycle);
    out.tlbMiss = tlb_pen != 0;
    const Cycle t = cycle + tlb_pen;
    addr = physAddr(addr);

    if (params_.perfectL1) {
        out.ready = t + l1.params().totalLatency();
        return out;
    }

    l1.noteDemandAccess();
    const TimedCache::LookupResult res = l1.lookup(addr, is_write, t);
    if (res.hit || res.merged) {
        out.l1Hit = res.hit;
        // Same upgrade obligation as the L2's hit and merge paths.
        if (is_write)
            upgradeShared(cpu, addr, res.ready);
        out.ready = res.ready;
        return out;
    }
    out.l1Hit = false;
    l1.noteDemandMiss();

    const Cycle t2 = res.ready + params_.l1ToL2Latency;
    bool l2_hit = true;
    const Cycle line_ready = l2Access(cpu, addr, is_write, t2, l2_hit);
    out.l2Hit = l2_hit;

    const Eviction ev = l1.fill(addr, line_ready, is_write);
    if (ev.valid && ev.dirty) {
        // Copy-back into the (inclusive) L2. Only stores dirty a
        // line, so an L1I eviction never takes this branch.
        l1.noteWriteback();
        cpus_[cpu]->l2->array().setDirty(ev.lineAddr);
    }
    out.ready = line_ready;
    return out;
}

AccessResult
MemSystem::fetch(CpuId cpu, Addr addr, Cycle cycle)
{
    PerCpu &pc = *cpus_[cpu];
    return l1Access(cpu, *pc.itlb, *pc.l1i, addr, false, cycle);
}

AccessResult
MemSystem::data(CpuId cpu, Addr addr, bool is_write, Cycle cycle)
{
    PerCpu &pc = *cpus_[cpu];
    return l1Access(cpu, *pc.dtlb, *pc.l1d, addr, is_write, cycle);
}

Cycle
MemSystem::nextPendingFill(Cycle now) const
{
    Cycle earliest = kCycleNever;
    for (const auto &pc : cpus_) {
        earliest = std::min({earliest, pc->l1i->nextPendingFill(now),
                             pc->l1d->nextPendingFill(now),
                             pc->l2->nextPendingFill(now)});
    }
    return earliest;
}

double
MemSystem::l2DemandMissRatio() const
{
    std::uint64_t acc = 0, miss = 0;
    for (const auto &pc : cpus_) {
        acc += pc->l2->demandAccessCount();
        miss += pc->l2->demandMissCount();
    }
    return acc ? static_cast<double>(miss) / acc : 0.0;
}

double
MemSystem::l2MissRatio() const
{
    // Include prefetch traffic: every issued prefetch is a request
    // that missed (prefetches are only sent for absent lines).
    std::uint64_t acc = 0, miss = 0;
    for (const auto &pc : cpus_) {
        acc += pc->l2->demandAccessCount() +
            pc->l2->prefetchIssuedCount();
        miss += pc->l2->demandMissCount() +
            pc->l2->prefetchIssuedCount();
    }
    return acc ? static_cast<double>(miss) / acc : 0.0;
}


void
MemSystem::checkpoint(ckpt::Archive &ar)
{
    ar.fixed32(static_cast<std::uint32_t>(cpus_.size()),
               "CPU count differs");
    for (auto &cpu : cpus_) {
        cpu->l1i->checkpoint(ar);
        cpu->l1d->checkpoint(ar);
        cpu->l2->checkpoint(ar);
        cpu->itlb->checkpoint(ar);
        cpu->dtlb->checkpoint(ar);
        cpu->prefetcher->checkpoint(ar);
    }
    bus_->checkpoint(ar);
    memCtrl_->checkpoint(ar);
}

} // namespace s64v
