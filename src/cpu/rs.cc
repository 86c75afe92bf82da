#include "cpu/rs.hh"

#include "ckpt/snapshot.hh"
#include <algorithm>

#include "common/logging.hh"

namespace s64v
{

ReservationStation::ReservationStation(const std::string &name,
                                       unsigned entries,
                                       unsigned dispatch_width,
                                       stats::Group *parent)
    : entries_(entries), dispatchWidth_(dispatch_width),
      statGroup_(name, parent),
      inserts_(statGroup_.scalar("inserts", "instructions issued "
                                 "into this station")),
      dispatches_(statGroup_.scalar("dispatches",
                                    "dispatches to execution")),
      fullStalls_(statGroup_.scalar("full_stalls",
                                    "issue stalls: station full")),
      occupancy_(statGroup_.distribution("occupancy",
                                         "entries held, sampled per "
                                         "cycle"))
{
    if (entries_ == 0 || dispatchWidth_ == 0)
        fatal("reservation station '%s': bad parameters",
              name.c_str());
    seqs_.reserve(entries_);
}

void
ReservationStation::insert(std::uint64_t seq)
{
    if (full())
        panic("reservation station overflow");
    ++inserts_;
    seqs_.push_back(seq); // issue is in program order: stays sorted.
}

void
ReservationStation::remove(std::uint64_t seq)
{
    auto it = std::find(seqs_.begin(), seqs_.end(), seq);
    if (it == seqs_.end())
        panic("removing absent RS entry");
    seqs_.erase(it);
}



void
ReservationStation::checkpoint(ckpt::Archive &ar)
{
    ar.u64Vec(seqs_);
    ar.require(seqs_.size() <= entries_,
               "reservation-station occupancy exceeds capacity");
}

} // namespace s64v
