/**
 * @file
 * Main-memory controller: multiple channels, each an occupancy-based
 * resource with a fixed access latency. Queueing delay emerges when
 * all channels are busy.
 */

#ifndef S64V_MEM_MEMCTRL_HH
#define S64V_MEM_MEMCTRL_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memtypes.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** Timed memory controller. */
class MemCtrl
{
  public:
    MemCtrl(const MemCtrlParams &params, stats::Group *parent);

    /**
     * Service a line read arriving at @p cycle.
     * @return the cycle the critical word is available at the pins.
     */
    Cycle read(Cycle cycle);

    /** Service a writeback; returns when the channel frees. */
    Cycle write(Cycle cycle);

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }
    std::uint64_t queueCycles() const { return queueCycles_.value(); }

    /** Write or read channel occupancy (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    Cycle allocate(Cycle cycle);

    MemCtrlParams params_;
    std::vector<Cycle> channelBusy_;

    stats::Group statGroup_;
    stats::Scalar &reads_;
    stats::Scalar &writes_;
    stats::Scalar &queueCycles_;
};

} // namespace s64v

#endif // S64V_MEM_MEMCTRL_HH
