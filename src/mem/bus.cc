#include "mem/bus.hh"

#include "ckpt/snapshot.hh"
#include <algorithm>

#include "common/logging.hh"
#include "obs/chrome_trace.hh"

namespace s64v
{

Bus::Bus(const BusParams &params, const std::string &name,
         stats::Group *parent)
    : params_(params), statGroup_(name, parent),
      transactions_(statGroup_.scalar("transactions",
                                      "bus transactions")),
      busyCycles_(statGroup_.scalar("busy_cycles",
                                    "cycles the bus was occupied")),
      conflictCycles_(statGroup_.scalar("conflict_cycles",
                                        "cycles requests waited for "
                                        "the bus")),
      queueDelay_(statGroup_.distribution(
          "queue_delay",
          "cycles a request waited before its bus phase started"))
{
    if (params_.bytesPerCycle == 0)
        fatal("bus '%s': zero bandwidth", name.c_str());
}

void
Bus::attachTrace(obs::ChromeTraceWriter *writer)
{
    trace_ = writer;
    if (trace_) {
        dataTid_ = trace_->track(obs::ChromeTraceWriter::kMemPid,
                                 statGroup_.path() + ".data");
        addrTid_ = trace_->track(obs::ChromeTraceWriter::kMemPid,
                                 statGroup_.path() + ".addr");
    }
}

Cycle
Bus::occupy(Cycle *busy_until, Cycle cycle, Cycle duration,
            unsigned trace_tid)
{
    if (cycle >= lostGrantAt_) {
        // Injected arbiter failure: the request is accepted but its
        // grant never arrives. Half of kCycleNever keeps downstream
        // latency arithmetic from overflowing while staying far
        // beyond any watchdog grace window.
        ++transactions_;
        return kCycleNever / 2;
    }
    ++transactions_;
    const Cycle start = std::max(cycle, *busy_until);
    conflictCycles_ += start - cycle;
    queueDelay_.sample(static_cast<double>(start - cycle));
    busyCycles_ += duration;
    *busy_until = start + duration;
    if (trace_) {
        trace_->span(obs::ChromeTraceWriter::kMemPid, trace_tid,
                     "xfer", "bus", start, start + duration);
    }
    return *busy_until;
}

Cycle
Bus::transfer(Cycle cycle, unsigned bytes)
{
    const Cycle duration =
        (bytes + params_.bytesPerCycle - 1) / params_.bytesPerCycle;
    return occupy(&dataBusyUntil_, cycle, duration, dataTid_);
}

Cycle
Bus::command(Cycle cycle)
{
    return occupy(&addrBusyUntil_, cycle, params_.requestLatency,
                  addrTid_);
}


void
Bus::checkpoint(ckpt::Archive &ar)
{
    ar.u64(addrBusyUntil_);
    ar.u64(dataBusyUntil_);
}

} // namespace s64v
