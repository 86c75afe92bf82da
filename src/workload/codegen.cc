#include "workload/codegen.hh"

#include "common/logging.hh"

namespace s64v
{

namespace
{

/** Body-class distribution (everything except branches). */
struct BodyDist
{
    std::vector<InstrClass> classes;
    std::vector<double> cdf;
};

BodyDist
makeBodyDist(const InstrMix &mix)
{
    BodyDist d;
    const double branch = mix.branchTotal();
    const double body = 1.0 - branch;
    if (body <= 0)
        fatal("instruction mix leaves no room for block bodies");

    auto add = [&](InstrClass c, double w) {
        if (w <= 0)
            return;
        d.classes.push_back(c);
        d.cdf.push_back((d.cdf.empty() ? 0.0 : d.cdf.back()) + w);
    };

    const double int_alu = body -
        (mix.load + mix.store + mix.intMul + mix.intDiv + mix.fpAdd +
         mix.fpMul + mix.fpMulAdd + mix.fpDiv + mix.special + mix.nop);
    if (int_alu < 0)
        fatal("instruction mix over-committed: IntAlu share %.3f < 0",
              int_alu);

    add(InstrClass::Load, mix.load);
    add(InstrClass::Store, mix.store);
    add(InstrClass::IntMul, mix.intMul);
    add(InstrClass::IntDiv, mix.intDiv);
    add(InstrClass::FpAdd, mix.fpAdd);
    add(InstrClass::FpMul, mix.fpMul);
    add(InstrClass::FpMulAdd, mix.fpMulAdd);
    add(InstrClass::FpDiv, mix.fpDiv);
    add(InstrClass::Special, mix.special);
    add(InstrClass::Nop, mix.nop);
    add(InstrClass::IntAlu, int_alu);
    return d;
}

/** Cumulative region weights for binding memory sites. */
std::vector<double>
regionCdf(const std::vector<DataRegion> &regions)
{
    std::vector<double> cdf;
    for (const DataRegion &r : regions)
        cdf.push_back((cdf.empty() ? 0.0 : cdf.back()) + r.weight);
    return cdf;
}

} // namespace

StaticProgram
buildProgram(const CodeLayout &layout, const InstrMix &mix,
             const std::vector<DataRegion> &regions, Rng &rng)
{
    StaticProgram prog;

    const BodyDist body_dist = makeBodyDist(mix);
    const std::vector<double> region_cdf = regionCdf(regions);

    // Mean body length so that terminators make up the requested
    // branch fraction of the dynamic stream.
    const double mean_body = 1.0 / mix.branchTotal() - 1.0;

    // Terminator split between plain conditional branches and
    // chain-end control transfers (uncond/call/ret).
    const double cond_share =
        mix.condBranch / mix.branchTotal();

    Addr pc = layout.base;
    std::uint16_t stream_counter = 0;

    for (std::uint32_t c = 0; c < layout.numChains; ++c) {
        StaticChain chain;
        chain.firstBlock = static_cast<std::uint32_t>(
            prog.blocks.size());
        chain.numBlocks = layout.blocksPerChain;

        for (std::uint32_t b = 0; b < layout.blocksPerChain; ++b) {
            StaticBlock blk;
            blk.startPc = pc;

            const unsigned len = rng.geometric(mean_body < 1.0
                                               ? 1.0 : mean_body);
            blk.body.reserve(len);
            for (unsigned i = 0; i < len; ++i) {
                StaticInstr si;
                si.cls = body_dist.classes[
                    rng.pickCumulative(body_dist.cdf)];
                if (isMemClass(si.cls)) {
                    if (regions.empty())
                        fatal("memory instruction with no regions");
                    si.region = static_cast<std::uint16_t>(
                        rng.pickCumulative(region_cdf));
                    si.stream = stream_counter++;
                }
                blk.body.push_back(si);
            }

            const bool last_in_chain = (b + 1 == layout.blocksPerChain);
            if (last_in_chain || !rng.chance(cond_share * 1.15)) {
                // Chain-end transfer; distribute the class across
                // uncond / call / return for mix fidelity.
                blk.exit = BlockExit::ChainEnd;
                const double u = rng.uniform();
                const double call_ret = mix.callRet /
                    (mix.callRet + mix.uncondBranch + 1e-12);
                if (u < call_ret * 0.5)
                    blk.exitClass = InstrClass::Call;
                else if (u < call_ret)
                    blk.exitClass = InstrClass::Return;
                else
                    blk.exitClass = InstrClass::BranchUncond;
            } else if (rng.chance(layout.loopFraction)) {
                blk.exit = BlockExit::CondLoop;
                blk.exitClass = InstrClass::BranchCond;
                blk.meanLoopIters = layout.meanLoopIters;
            } else {
                blk.exit = BlockExit::CondForward;
                blk.exitClass = InstrClass::BranchCond;
                blk.takenSkip = 1 + static_cast<std::uint32_t>(
                    rng.below(3));
                if (rng.chance(layout.hardBranchFraction)) {
                    blk.takenProb = 0.35 + 0.3 * rng.uniform();
                } else {
                    blk.takenProb = rng.chance(0.5)
                        ? layout.easyTakenBias
                        : 1.0 - layout.easyTakenBias;
                }
            }

            pc = blk.endPc();
            prog.blocks.push_back(std::move(blk));
        }
        prog.chains.push_back(chain);
        // Small gap between chains so they land on distinct lines.
        pc = (pc + 255) & ~Addr{255};
    }

    prog.chainPopularity = ZipfSampler(prog.chains.size(),
                                       layout.chainZipfSkew);
    return prog;
}

} // namespace s64v
