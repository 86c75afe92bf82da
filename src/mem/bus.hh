/**
 * @file
 * System bus model: a shared, bandwidth-limited resource connecting
 * the per-processor SX-units to the memory controller and to each
 * other. Occupancy-based: each transaction reserves the bus for
 * bytes / bytesPerCycle cycles; later requests queue behind it.
 */

#ifndef S64V_MEM_BUS_HH
#define S64V_MEM_BUS_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memtypes.hh"

namespace s64v
{

namespace obs { class ChromeTraceWriter; }
namespace ckpt { class Archive; }

/** Shared system bus with occupancy accounting. */
class Bus
{
  public:
    Bus(const BusParams &params, const std::string &name,
        stats::Group *parent);

    /**
     * Reserve the bus for a transaction of @p bytes starting no
     * earlier than @p cycle.
     * @return the cycle the transaction's transfer completes.
     */
    Cycle transfer(Cycle cycle, unsigned bytes);

    /**
     * Address/command-only transaction (snoop broadcast, upgrade).
     * @return completion cycle of the command phase.
     */
    Cycle command(Cycle cycle);

    /**
     * Fault injection (--inject-fault=lost-grant:<cycle>): from
     * @p cycle on, the arbiter never grants again — transactions get
     * an unreachable completion cycle, which must trip the watchdog
     * rather than hang the run.
     */
    void injectLostGrant(Cycle cycle) { lostGrantAt_ = cycle; }

    std::uint64_t transactions() const
    {
        return transactions_.value();
    }
    std::uint64_t conflictCycles() const
    {
        return conflictCycles_.value();
    }

    /**
     * Record every bus occupancy span into @p writer (data and
     * address phases on separate tracks). Pass nullptr to detach.
     */
    void attachTrace(obs::ChromeTraceWriter *writer);

    /** Write or read arbitration state (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    Cycle occupy(Cycle *busy_until, Cycle cycle, Cycle duration,
                 unsigned trace_tid);

    BusParams params_;
    /**
     * Split-transaction bus: the address/command phase and the data
     * phase arbitrate independently, so a long-latency request's
     * future data transfer does not block younger commands.
     */
    Cycle addrBusyUntil_ = 0;
    Cycle dataBusyUntil_ = 0;
    Cycle lostGrantAt_ = kCycleNever; ///< fault injection; see above.

    obs::ChromeTraceWriter *trace_ = nullptr;
    unsigned dataTid_ = 0;
    unsigned addrTid_ = 0;

    stats::Group statGroup_;
    stats::Scalar &transactions_;
    stats::Scalar &busyCycles_;
    stats::Scalar &conflictCycles_;
    stats::Distribution &queueDelay_;
};

} // namespace s64v

#endif // S64V_MEM_BUS_HH
