#include "mem/memctrl.hh"

#include "ckpt/snapshot.hh"
#include <algorithm>

#include "common/logging.hh"

namespace s64v
{

MemCtrl::MemCtrl(const MemCtrlParams &params, stats::Group *parent)
    : params_(params), statGroup_("memctrl", parent),
      reads_(statGroup_.scalar("reads", "line reads serviced")),
      writes_(statGroup_.scalar("writes", "writebacks serviced")),
      queueCycles_(statGroup_.scalar("queue_cycles",
                                     "cycles requests waited for a "
                                     "free channel"))
{
    if (params_.channels == 0)
        fatal("memctrl: zero channels");
    channelBusy_.assign(params_.channels, 0);
}

Cycle
MemCtrl::allocate(Cycle cycle)
{
    auto it = std::min_element(channelBusy_.begin(),
                               channelBusy_.end());
    const Cycle start = std::max(cycle, *it);
    queueCycles_ += start - cycle;
    *it = start + params_.occupancy;
    return start;
}

Cycle
MemCtrl::read(Cycle cycle)
{
    ++reads_;
    return allocate(cycle) + params_.accessLatency;
}

Cycle
MemCtrl::write(Cycle cycle)
{
    ++writes_;
    return allocate(cycle) + params_.occupancy;
}


void
MemCtrl::checkpoint(ckpt::Archive &ar)
{
    ar.fixed64(channelBusy_.size(),
               "memory-controller channel count differs");
    for (Cycle &c : channelBusy_)
        ar.u64(c);
}

} // namespace s64v
