/**
 * @file
 * Independent reference timing model. The paper validates its
 * performance model against a cycle-accurate logic simulator built
 * from the RTL; that artifact is proprietary, so we substitute a
 * second, independently written timing model (a simple in-order,
 * single-issue machine with its own private cache simulation). The
 * test suite cross-checks trends between the two implementations the
 * way the paper cross-checked model and logic simulator.
 */

#ifndef S64V_GOLDEN_GOLDEN_HH
#define S64V_GOLDEN_GOLDEN_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace s64v
{

/** Parameters of the reference machine. */
struct GoldenParams
{
    unsigned l1Lines = 2048;      ///< direct-mapped, 64-B lines.
    unsigned l2Lines = 32768;
    unsigned l1Latency = 4;
    unsigned l2Latency = 14;
    unsigned memLatency = 160;
    unsigned branchMissPenalty = 12;
};

/** Result of a reference run. */
struct GoldenResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    double cpi = 0.0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t branchMisses = 0;
};

/**
 * In-order, single-issue scalar model: one instruction per cycle plus
 * stall cycles for register dependences, cache misses, and
 * (bimodal-predicted) branch misses.
 */
class GoldenModel
{
  public:
    explicit GoldenModel(const GoldenParams &params = GoldenParams{});

    GoldenResult run(const InstrTrace &trace);

  private:
    struct SimpleCache
    {
        std::vector<Addr> tags;
        explicit SimpleCache(unsigned lines)
            : tags(lines, kAddrNone) {}
        bool
        access(Addr addr)
        {
            const Addr line = addr / 64;
            const std::size_t idx = line % tags.size();
            if (tags[idx] == line)
                return true;
            tags[idx] = line;
            return false;
        }
    };

    GoldenParams params_;
};

} // namespace s64v

#endif // S64V_GOLDEN_GOLDEN_HH
