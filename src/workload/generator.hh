/**
 * @file
 * Dynamic trace synthesis: walks the static programs built by
 * codegen.hh and emits TraceRecords with effective addresses, branch
 * outcomes, register dependencies, and kernel/user phases.
 */

#ifndef S64V_WORKLOAD_GENERATOR_HH
#define S64V_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "trace/trace.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

namespace s64v
{

/**
 * Generates instruction traces for one workload profile. A single
 * generator instance can emit traces for several CPUs of an SMP
 * system; private data regions are relocated per CPU while regions
 * marked shared keep a common base so coherence traffic arises.
 */
class TraceGenerator
{
  public:
    /**
     * @param profile validated workload description.
     * @param num_cpus SMP width the traces are destined for.
     */
    explicit TraceGenerator(const WorkloadProfile &profile,
                            unsigned num_cpus = 1);

    /**
     * Generate @p num_instrs records for @p cpu. Deterministic for a
     * given (profile.seed, cpu) pair.
     */
    InstrTrace generate(std::size_t num_instrs, CpuId cpu = 0);

  private:
    /** Per-privilege-level walk state. */
    struct WalkState
    {
        const StaticProgram *prog = nullptr;
        std::uint32_t chain = 0;
        std::uint32_t block = 0;     ///< absolute block index.
        std::uint32_t bodyPos = 0;
        std::uint32_t loopLeft = 0;  ///< pending loop iterations.
        bool inLoop = false;
    };

    /** Mutable per-trace generation context. */
    struct GenContext
    {
        Rng rng{1};
        CpuId cpu = 0;
        bool kernelMode = false;
        std::uint64_t phaseLeft = 0;
        WalkState user, kernel;
        std::vector<std::uint64_t> userCursors, kernelCursors;
        std::vector<Addr> chainPtrs; ///< PointerChain positions.
        // Register recency model.
        std::vector<RegId> recentInt, recentFp, recentLoadDst;
        unsigned intDstNext = 8, fpDstNext = 0;
    };

    void startChain(GenContext &ctx, WalkState &ws);
    void emitOne(GenContext &ctx, InstrTrace &out);
    Addr dataAddress(GenContext &ctx, const StaticInstr &si,
                     const DataRegion &region, std::uint64_t &cursor);
    void assignRegs(GenContext &ctx, TraceRecord &rec);
    const std::vector<DataRegion> &regionsFor(bool kernel) const;

    WorkloadProfile profile_;
    unsigned numCpus_;
    StaticProgram user_;
    StaticProgram kernel_;
    std::vector<ZipfSampler> pageSamplers_;   ///< user then kernel.
    std::vector<ZipfSampler> offsetSamplers_; ///< within-page skew.
};

/**
 * Convenience wrapper: build a generator and emit one trace.
 */
InstrTrace generateTrace(const WorkloadProfile &profile,
                         std::size_t num_instrs, CpuId cpu = 0,
                         unsigned num_cpus = 1);

} // namespace s64v

#endif // S64V_WORKLOAD_GENERATOR_HH
