#include "check/invariants.hh"

#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "sim/system.hh"

namespace s64v
{
namespace check
{

CheckLevel
checkLevelFromString(const char *s)
{
    if (std::strcmp(s, "off") == 0)
        return CheckLevel::Off;
    if (std::strcmp(s, "end") == 0)
        return CheckLevel::EndOfRun;
    if (std::strcmp(s, "cycle") == 0)
        return CheckLevel::PerCycle;
    fatal("unknown check level '%s' (expected off, end or cycle)", s);
}

void
InvariantAuditor::checkStructuralBounds(Cycle cycle)
{
    const unsigned ncpu = sys_.params().numCpus;
    for (CpuId c = 0; c < ncpu; ++c) {
        Core &core = sys_.core(c);
        const CoreParams &p = core.params();

        ++checksRun_;
        if (core.windowSize() > core.windowCapacity()) {
            panic("cycle %llu cpu%u: window holds %zu of %zu entries",
                  static_cast<unsigned long long>(cycle), c,
                  core.windowSize(), std::size_t{core.windowCapacity()});
        }
        ++checksRun_;
        if (core.rawIssued() != core.rawCommitted() + core.windowSize()) {
            panic("cycle %llu cpu%u: conservation broken: issued %llu "
                  "!= committed %llu + in-window %zu",
                  static_cast<unsigned long long>(cycle), c,
                  static_cast<unsigned long long>(core.rawIssued()),
                  static_cast<unsigned long long>(core.rawCommitted()),
                  core.windowSize());
        }
        for (unsigned i = 0; i < kNumRs; ++i) {
            const ReservationStation *rs = core.station(i);
            if (!rs)
                continue;
            ++checksRun_;
            if (rs->occupancy() > rs->capacity()) {
                panic("cycle %llu cpu%u: station %u holds %zu of %u "
                      "entries",
                      static_cast<unsigned long long>(cycle), c, i,
                      rs->occupancy(), rs->capacity());
            }
        }
        ++checksRun_;
        if (core.lsq().lqSize() > core.lsq().lqCapacity() ||
            core.lsq().sqSize() > core.lsq().sqCapacity()) {
            panic("cycle %llu cpu%u: LSQ overflow (lq %zu/%zu, "
                  "sq %zu/%zu)",
                  static_cast<unsigned long long>(cycle), c,
                  core.lsq().lqSize(), core.lsq().lqCapacity(),
                  core.lsq().sqSize(), core.lsq().sqCapacity());
        }
        ++checksRun_;
        if (core.renameUnit().intInUse() > p.intRenameRegs ||
            core.renameUnit().fpInUse() > p.fpRenameRegs) {
            panic("cycle %llu cpu%u: rename pool overflow "
                  "(int %u/%u, fp %u/%u)",
                  static_cast<unsigned long long>(cycle), c,
                  core.renameUnit().intInUse(), p.intRenameRegs,
                  core.renameUnit().fpInUse(), p.fpRenameRegs);
        }
    }
}

void
InvariantAuditor::checkCoherence()
{
    MemSystem &mem = sys_.mem();
    if (mem.params().perfectL1 || mem.params().perfectL2)
        return; // idealized levels do not maintain real line state.

    const unsigned ncpu = mem.numCpus();

    // Inclusion: every valid L1 line must be present in the local L2.
    for (CpuId c = 0; c < ncpu; ++c) {
        const CacheArray &l2 = mem.l2(c).array();
        auto check_inclusion = [&](const CacheArray &l1,
                                   const char *which) {
            l1.forEachValidLine([&](Addr addr, bool) {
                ++checksRun_;
                if (!l2.probe(addr)) {
                    panic("cpu%u: inclusion broken: %s line 0x%llx "
                          "absent from L2", c, which,
                          static_cast<unsigned long long>(addr));
                }
            });
        };
        check_inclusion(mem.l1i(c).array(), "L1I");
        check_inclusion(mem.l1d(c).array(), "L1D");
    }

    if (ncpu < 2)
        return;

    // Per line: how many clusters hold it, and which hold it dirty
    // (at either cache level -- the authoritative copy may be an L1D
    // line above a clean L2 line).
    struct LineState
    {
        unsigned sharers = 0;
        unsigned dirtyOwners = 0;
        CpuId firstDirty = 0;
    };
    std::unordered_map<Addr, LineState> lines;
    for (CpuId c = 0; c < ncpu; ++c) {
        const CacheArray &l1d = mem.l1d(c).array();
        mem.l2(c).array().forEachValidLine(
            [&](Addr addr, bool l2_dirty) {
                LineState &st = lines[addr];
                ++st.sharers;
                if (l2_dirty || l1d.isDirty(addr)) {
                    if (st.dirtyOwners == 0)
                        st.firstDirty = c;
                    ++st.dirtyOwners;
                }
            });
    }
    for (const auto &[addr, st] : lines) {
        ++checksRun_;
        if (st.dirtyOwners > 1) {
            panic("coherence broken: line 0x%llx has %u dirty owners",
                  static_cast<unsigned long long>(addr),
                  st.dirtyOwners);
        }
        ++checksRun_;
        if (st.dirtyOwners == 1 && st.sharers > 1) {
            panic("coherence broken: line 0x%llx dirty in cpu%u with "
                  "%u stale sharer(s)",
                  static_cast<unsigned long long>(addr), st.firstDirty,
                  st.sharers - 1);
        }
    }
}

void
InvariantAuditor::checkDrain(Cycle cycle)
{
    const unsigned ncpu = sys_.params().numCpus;
    for (CpuId c = 0; c < ncpu; ++c) {
        Core &core = sys_.core(c);

        ++checksRun_;
        if (core.rawIssued() != core.rawCommitted()) {
            panic("cycle %llu cpu%u: drained run lost instructions: "
                  "issued %llu, committed %llu",
                  static_cast<unsigned long long>(cycle), c,
                  static_cast<unsigned long long>(core.rawIssued()),
                  static_cast<unsigned long long>(core.rawCommitted()));
        }
        ++checksRun_;
        if (core.windowSize() != 0) {
            panic("cycle %llu cpu%u: %zu window entries left after "
                  "drain", static_cast<unsigned long long>(cycle), c,
                  core.windowSize());
        }
        for (unsigned i = 0; i < kNumRs; ++i) {
            const ReservationStation *rs = core.station(i);
            if (!rs)
                continue;
            ++checksRun_;
            if (rs->occupancy() != 0) {
                panic("cycle %llu cpu%u: station %u still holds %zu "
                      "entries after drain",
                      static_cast<unsigned long long>(cycle), c, i,
                      rs->occupancy());
            }
        }
        ++checksRun_;
        if (core.lsq().lqSize() != 0 || core.lsq().sqSize() != 0 ||
            core.pendingStoreCount() != 0) {
            panic("cycle %llu cpu%u: LSQ not drained (lq %zu, sq %zu, "
                  "pending stores %zu)",
                  static_cast<unsigned long long>(cycle), c,
                  core.lsq().lqSize(), core.lsq().sqSize(),
                  core.pendingStoreCount());
        }
        ++checksRun_;
        if (core.renameUnit().intInUse() != 0 ||
            core.renameUnit().fpInUse() != 0) {
            panic("cycle %llu cpu%u: renaming registers leaked "
                  "(int %u, fp %u)",
                  static_cast<unsigned long long>(cycle), c,
                  core.renameUnit().intInUse(),
                  core.renameUnit().fpInUse());
        }
    }
}

void
InvariantAuditor::checkMshrs(Cycle cycle)
{
    MemSystem &mem = sys_.mem();
    const unsigned ncpu = mem.numCpus();
    // Any fill still pending this far past the end of the run can
    // never have been consumed by a committed instruction.
    const Cycle horizon = cycle + 1'000'000;
    for (CpuId c = 0; c < ncpu; ++c) {
        const TimedCache *caches[3] = {&mem.l1i(c), &mem.l1d(c),
                                       &mem.l2(c)};
        const char *names[3] = {"L1I", "L1D", "L2"};
        for (unsigned i = 0; i < 3; ++i) {
            ++checksRun_;
            if (caches[i]->unpairedMisses() != 0) {
                panic("cpu%u %s: %zu miss lookups never paired with a "
                      "fill", c, names[i], caches[i]->unpairedMisses());
            }
            ++checksRun_;
            const Cycle earliest = caches[i]->nextPendingFill(cycle);
            if (earliest != kCycleNever && earliest > horizon) {
                panic("cpu%u %s: in-flight fill completes at cycle "
                      "%llu, unreachable from end cycle %llu",
                      c, names[i],
                      static_cast<unsigned long long>(earliest),
                      static_cast<unsigned long long>(cycle));
            }
        }
    }
}

void
InvariantAuditor::checkCycle(Cycle cycle)
{
    checkStructuralBounds(cycle);
    checkCoherence();
}

void
InvariantAuditor::checkEndOfRun(Cycle cycle)
{
    checkStructuralBounds(cycle);
    checkCoherence();
    checkDrain(cycle);
    checkMshrs(cycle);
}

} // namespace check
} // namespace s64v
