/**
 * @file
 * Static program synthesis: turns a CodeLayout + InstrMix into a
 * basic-block graph with fixed PCs, per-site instruction classes,
 * per-site data-region bindings, and per-site branch behaviour. The
 * dynamic generator then walks this graph; stable PCs are what give
 * the branch predictor and the instruction cache realistic working
 * sets.
 */

#ifndef S64V_WORKLOAD_CODEGEN_HH
#define S64V_WORKLOAD_CODEGEN_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "isa/instr.hh"
#include "workload/profile.hh"

namespace s64v
{

/** Kind of control transfer terminating a basic block. */
enum class BlockExit : std::uint8_t
{
    CondForward, ///< conditional branch skipping ahead in the chain.
    CondLoop,    ///< conditional loop-back branch to the block start.
    ChainEnd,    ///< unconditional return to the chain dispatcher.
};

/** One static instruction slot inside a basic block body. */
struct StaticInstr
{
    InstrClass cls = InstrClass::IntAlu;
    std::uint16_t region = 0;  ///< data-region index for memory ops.
    std::uint16_t stream = 0;  ///< stream id for patterned regions.
};

/** One static basic block. */
struct StaticBlock
{
    Addr startPc = 0;
    std::vector<StaticInstr> body; ///< excludes the terminator.
    BlockExit exit = BlockExit::CondForward;
    InstrClass exitClass = InstrClass::BranchCond;
    double takenProb = 0.5;    ///< for CondForward terminators.
    double meanLoopIters = 8;  ///< for CondLoop terminators.
    std::uint32_t takenSkip = 1; ///< blocks skipped when taken.

    Addr exitPc() const
    {
        return startPc + 4 * static_cast<Addr>(body.size());
    }
    Addr endPc() const { return exitPc() + 4; }
};

/** A chain: a contiguous run of blocks entered from the dispatcher. */
struct StaticChain
{
    std::uint32_t firstBlock = 0;
    std::uint32_t numBlocks = 0;
};

/**
 * The whole synthetic program for one privilege level: blocks,
 * chains, and a Zipf sampler over chain popularity.
 */
struct StaticProgram
{
    std::vector<StaticBlock> blocks;
    std::vector<StaticChain> chains;
    ZipfSampler chainPopularity{1, 0.0};
};

/**
 * Build a static program.
 *
 * @param layout code shape parameters.
 * @param mix instruction mix (body classes + terminator split).
 * @param regions data regions the memory sites bind to.
 * @param rng deterministic randomness source.
 */
StaticProgram buildProgram(const CodeLayout &layout, const InstrMix &mix,
                           const std::vector<DataRegion> &regions,
                           Rng &rng);

} // namespace s64v

#endif // S64V_WORKLOAD_CODEGEN_HH
