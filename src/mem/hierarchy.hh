/**
 * @file
 * The full timed memory system: per-processor L1I/L1D/TLBs/L2 with
 * hardware prefetch, a shared system bus, the memory controller, and
 * snooping coherence for SMP configurations. This is the "detailed
 * memory system model" half of the paper's performance model.
 */

#ifndef S64V_MEM_HIERARCHY_HH
#define S64V_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/memctrl.hh"
#include "mem/memtypes.hh"
#include "mem/prefetch.hh"
#include "mem/tlb.hh"

namespace s64v
{

/** Configuration of the whole memory system. */
struct MemParams
{
    CacheParams l1i{.name = "l1i", .sizeBytes = 128 << 10, .assoc = 2,
                    .latency = 4, .mshrs = 4};
    CacheParams l1d{.name = "l1d", .sizeBytes = 128 << 10, .assoc = 2,
                    .latency = 4, .mshrs = 16};
    CacheParams l2{.name = "l2", .sizeBytes = 2 << 20, .assoc = 4,
                   .latency = 12, .mshrs = 12};
    TlbParams itlb{.entries = 256, .assoc = 4};
    TlbParams dtlb{.entries = 512, .assoc = 4};
    BusParams bus;
    MemCtrlParams memctrl;
    SnoopParams snoop;
    PrefetchParams prefetch;
    unsigned l1ToL2Latency = 2;

    /** Idealization switches for the Figure 7 breakdown. @{ */
    bool perfectL1 = false;
    bool perfectL2 = false;
    bool perfectTlb = false;
    /** @} */
};

/**
 * Timed memory system shared by every core of a (possibly SMP)
 * machine. The CPU model calls fetch()/data(); timing is computed by
 * walking the hierarchy and reserving occupancy on shared resources.
 */
class MemSystem
{
  public:
    MemSystem(const MemParams &params, unsigned num_cpus,
              stats::Group *parent);

    /** Instruction fetch of the line containing @p addr. */
    AccessResult fetch(CpuId cpu, Addr addr, Cycle cycle);

    /**
     * Data access. Loads call with is_write=false at issue; stores
     * call with is_write=true when they retire from the store queue.
     */
    AccessResult data(CpuId cpu, Addr addr, bool is_write,
                      Cycle cycle);

    const MemParams &params() const { return params_; }
    unsigned numCpus() const
    {
        return static_cast<unsigned>(cpus_.size());
    }

    /** Component access for experiments and tests. @{ */
    TimedCache &l1i(CpuId cpu) { return *cpus_[cpu]->l1i; }
    TimedCache &l1d(CpuId cpu) { return *cpus_[cpu]->l1d; }
    TimedCache &l2(CpuId cpu) { return *cpus_[cpu]->l2; }
    Tlb &dtlb(CpuId cpu) { return *cpus_[cpu]->dtlb; }
    Tlb &itlb(CpuId cpu) { return *cpus_[cpu]->itlb; }
    Bus &bus() { return *bus_; }
    MemCtrl &memCtrl() { return *memCtrl_; }
    CoherenceController &coherence() { return *coherence_; }
    /** @} */

    /**
     * Earliest fill landing after @p now in any CPU's L1I, L1D or L2,
     * or kCycleNever when none: the watchdog's event probe, asked at
     * its deadlines. The kernel asks nothing of the memory system:
     * it is lazily timed (an access computes its completion when a
     * core issues it), so a completion moves a stat only when a
     * core's stage reads it, at a cycle that core's nextWorkCycle()
     * already names.
     */
    Cycle nextPendingFill(Cycle now) const;

    /** Aggregate L2 demand-miss ratio over all CPUs (Figure 15/17). */
    double l2DemandMissRatio() const;
    /** Aggregate L2 miss ratio including prefetches (Figure 17). */
    double l2MissRatio() const;

    /**
     * Virtual-to-pseudo-physical translation used by the hierarchy
     * (1-MiB placement chunks). Public so tests and tools can compute
     * the cache-visible address of a virtual location.
     */
    static Addr physAddr(Addr va);

    /**
     * Write or read every timed structure in the hierarchy (per-CPU
     * caches/TLBs/prefetcher, bus, memory controller). The snooping
     * coherence controller reads cache state; it holds none of its
     * own beyond stats, which travel with the stats tree.
     */
    void checkpoint(ckpt::Archive &ar);

  private:
    struct PerCpu
    {
        std::unique_ptr<stats::Group> group;
        std::unique_ptr<TimedCache> l1i;
        std::unique_ptr<TimedCache> l1d;
        std::unique_ptr<TimedCache> l2;
        std::unique_ptr<Tlb> itlb;
        std::unique_ptr<Tlb> dtlb;
        std::unique_ptr<StreamPrefetcher> prefetcher;
    };

    /**
     * Service an L2 miss through bus / snoop / memory.
     * @return cycle the line arrives at the L2.
     */
    Cycle memoryPath(CpuId cpu, Addr addr, bool is_write, Cycle cycle);

    /**
     * The one L1 access walk, for fetch (L1I, ITLB, never a write)
     * and data (L1D, DTLB): translate, look up, and on a miss go to
     * the L2 and fill.
     */
    AccessResult l1Access(CpuId cpu, Tlb &tlb, TimedCache &l1,
                          Addr addr, bool is_write, Cycle cycle);
    /** Handle an L2 fill including evictions and prefetch kicks. */
    Cycle l2Access(CpuId cpu, Addr addr, bool is_write, Cycle cycle,
                   bool &l2_hit);
    /**
     * A store to a line other processors hold sends an upgrade: a bus
     * command at @p cycle that invalidates the remote copies.
     */
    void upgradeShared(CpuId cpu, Addr addr, Cycle cycle);

    /** Execute prefetch candidates proposed by a demand request. */
    void runPrefetches(CpuId cpu, const std::vector<Addr> &candidates,
                       Cycle cycle);

    void handleL2Eviction(CpuId cpu, const Eviction &ev, Cycle cycle);

    MemParams params_;
    std::vector<std::unique_ptr<PerCpu>> cpus_;
    std::unique_ptr<Bus> bus_;
    std::unique_ptr<MemCtrl> memCtrl_;
    std::unique_ptr<CoherenceController> coherence_;
    std::vector<Addr> prefetchScratch_;
};

} // namespace s64v

#endif // S64V_MEM_HIERARCHY_HH
