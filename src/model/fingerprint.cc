#include "model/fingerprint.hh"

#include <cstring>

#include "ckpt/snapshot.hh"
#include "model/params.hh"
#include "trace/trace.hh"
#include "workload/profile.hh"

namespace s64v
{

namespace
{

/**
 * Field-by-field FNV accumulator. Every value is widened to a fixed
 * 8-byte little-endian representation before hashing so the result
 * does not depend on struct padding or host int widths.
 */
class Fp
{
  public:
    void
    u(std::uint64_t v)
    {
        std::uint8_t buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
        h_ = ckpt::fnv1a(buf, sizeof buf, h_);
    }

    void b(bool v) { u(v ? 1 : 0); }

    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u(bits);
    }

    void
    s(const std::string &v)
    {
        u(v.size());
        h_ = ckpt::fnv1a(v.data(), v.size(), h_);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = ckpt::fnv1a(nullptr, 0);
};

void
hashCacheParams(Fp &fp, const CacheParams &c)
{
    fp.s(c.name);
    fp.u(c.sizeBytes);
    fp.u(c.assoc);
    fp.u(c.latency);
    fp.u(c.mshrs);
    fp.b(c.offChip);
    fp.u(c.offChipPenalty);
    fp.d(c.ras.errorsPerMAccess);
    fp.u(c.ras.correctionLatency);
    fp.u(c.ras.degradedWays);
}

void
hashTlbParams(Fp &fp, const TlbParams &t)
{
    fp.u(t.entries);
    fp.u(t.assoc);
    fp.u(t.pageBytes);
    fp.u(t.walkLatency);
}

void
hashCoreParams(Fp &fp, const CoreParams &c)
{
    fp.u(c.issueWidth);
    fp.u(c.commitWidth);
    fp.u(c.windowEntries);
    fp.u(c.intRenameRegs);
    fp.u(c.fpRenameRegs);
    fp.u(c.fetchBytes);
    fp.u(c.fetchQueueEntries);
    fp.u(c.mispredictRedirect);
    fp.u(c.rsaEntries);
    fp.u(c.rsbrEntries);
    fp.u(c.rseEntries);
    fp.u(c.rsfEntries);
    fp.b(c.unifiedRs);
    fp.u(c.loadQueueEntries);
    fp.u(c.storeQueueEntries);
    fp.u(c.l1dPorts);
    fp.u(c.l1dBanks);
    fp.u(c.dispatchToExec);
    fp.b(c.speculativeDispatch);
    fp.b(c.dataForwarding);
    fp.u(static_cast<std::uint64_t>(c.specialMode));
    fp.u(c.specialPenalty);
    fp.u(c.bpred.entries);
    fp.u(c.bpred.assoc);
    fp.u(c.bpred.takenBubbles);
    fp.b(c.bpred.perfect);
}

void
hashMemParams(Fp &fp, const MemParams &m)
{
    hashCacheParams(fp, m.l1i);
    hashCacheParams(fp, m.l1d);
    hashCacheParams(fp, m.l2);
    hashTlbParams(fp, m.itlb);
    hashTlbParams(fp, m.dtlb);
    fp.u(m.bus.bytesPerCycle);
    fp.u(m.bus.requestLatency);
    fp.u(m.memctrl.channels);
    fp.u(m.memctrl.accessLatency);
    fp.u(m.memctrl.occupancy);
    fp.u(m.snoop.snoopLatency);
    fp.u(m.snoop.cacheToCache);
    fp.b(m.prefetch.enabled);
    fp.u(m.prefetch.streams);
    fp.u(m.prefetch.candidates);
    fp.u(m.prefetch.degree);
    fp.u(m.prefetch.trainThreshold);
    fp.u(m.l1ToL2Latency);
    fp.b(m.perfectL1);
    fp.b(m.perfectL2);
    fp.b(m.perfectTlb);
}

void
hashCodeLayout(Fp &fp, const CodeLayout &c)
{
    fp.u(c.base);
    fp.u(c.numChains);
    fp.u(c.blocksPerChain);
    fp.d(c.chainZipfSkew);
    fp.d(c.hardBranchFraction);
    fp.d(c.easyTakenBias);
    fp.d(c.loopFraction);
    fp.d(c.meanLoopIters);
}

void
hashRegions(Fp &fp, const std::vector<DataRegion> &regions)
{
    fp.u(regions.size());
    for (const DataRegion &r : regions) {
        fp.s(r.name);
        fp.u(r.base);
        fp.u(r.size);
        fp.d(r.weight);
        fp.u(static_cast<std::uint64_t>(r.pattern));
        fp.u(r.stride);
        fp.u(r.numStreams);
        fp.d(r.zipfSkew);
        fp.u(r.pageSize);
        fp.d(r.headerFraction);
        fp.d(r.offsetZipfSkew);
        fp.b(r.shared);
    }
}

} // namespace

const char *
modelVersionString()
{
    // <model family>-<Figure 19 ladder top>.<timing revision>.
    return "s64v-8.1";
}

std::uint64_t
fingerprintSystemParams(const SystemParams &params)
{
    Fp fp;
    hashCoreParams(fp, params.core);
    hashMemParams(fp, params.mem);
    fp.u(params.numCpus);
    fp.u(params.maxCycles);
    fp.u(params.warmupInstrs);
    return fp.value();
}

std::uint64_t
fingerprintMachine(const MachineParams &machine)
{
    Fp fp;
    fp.s(machine.name);
    fp.u(fingerprintSystemParams(machine.sys));
    return fp.value();
}

std::uint64_t
fingerprintWorkload(const WorkloadProfile &profile)
{
    Fp fp;
    fp.s(profile.name);
    const InstrMix &m = profile.mix;
    fp.d(m.load);
    fp.d(m.store);
    fp.d(m.condBranch);
    fp.d(m.uncondBranch);
    fp.d(m.callRet);
    fp.d(m.intMul);
    fp.d(m.intDiv);
    fp.d(m.fpAdd);
    fp.d(m.fpMul);
    fp.d(m.fpMulAdd);
    fp.d(m.fpDiv);
    fp.d(m.special);
    fp.d(m.nop);
    hashCodeLayout(fp, profile.userCode);
    hashRegions(fp, profile.userRegions);
    fp.d(profile.kernelFraction);
    fp.d(profile.kernelBurst);
    hashCodeLayout(fp, profile.kernelCode);
    hashRegions(fp, profile.kernelRegions);
    fp.d(profile.depNearProb);
    fp.d(profile.depMeanDist);
    fp.d(profile.loadAddrChain);
    fp.d(profile.fpLoadFraction);
    fp.u(profile.seed);
    return fp.value();
}

std::uint64_t
fingerprintTrace(const InstrTrace &trace)
{
    Fp fp;
    fp.s(trace.workloadName());
    fp.u(trace.size());
    const auto &recs = trace.records();
    if (!recs.empty()) {
        const std::uint64_t bytes =
            ckpt::fnv1a(recs.data(),
                        recs.size() * sizeof(TraceRecord));
        fp.u(bytes);
    }
    return fp.value();
}

} // namespace s64v
