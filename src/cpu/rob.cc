#include "cpu/rob.hh"

#include <cstdlib>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v
{

InstrWindow::InstrWindow(unsigned capacity)
    : capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("instruction window must have at least one entry");
    std::uint64_t sz = 1;
    while (sz < capacity_)
        sz <<= 1;
    buf_.resize(sz);
    slotMask_ = sz - 1;
}

WindowEntry &
InstrWindow::allocate(const TraceRecord &rec, Cycle cycle)
{
    if (full())
        panic("instruction window overflow");
    WindowEntry &e = buf_[slotOf(tail_)];
    e = WindowEntry{};
    e.rec = rec;
    e.seq = tail_;
    e.issueCycle = cycle;
    ++tail_;
    return e;
}

void
InstrWindow::retireHead()
{
    if (empty())
        panic("retire from empty window");
    ++head_;
}

void
InstrWindow::checkRange(std::uint64_t seq) const
{
    panic("window entry %llu out of range [%llu, %llu)",
          static_cast<unsigned long long>(seq),
          static_cast<unsigned long long>(head_),
          static_cast<unsigned long long>(tail_));
    std::abort(); // panic may return when throw-on-error is armed.
}


namespace
{

void
checkpointEntry(ckpt::Archive &ar, WindowEntry &e)
{
    ar.bytes(&e.rec, sizeof(e.rec));
    ar.require(recordValid(e.rec),
               "window record has an out-of-range class or register");
    ar.u64(e.seq);
    auto state = static_cast<std::uint8_t>(e.state);
    ar.u8(state);
    ar.require(state <= static_cast<std::uint8_t>(InstrState::Done),
               "window entry state out of range");
    e.state = static_cast<InstrState>(state);
    ar.u64(e.issueCycle);
    ar.u64(e.dispatchCycle);
    ar.u64(e.execCycle);
    ar.u64(e.doneCycle);
    ar.u64(e.predReady);
    ar.u64(e.actualReady);
    ar.u64(e.missKnownAt);
    ar.u64(e.notBefore);
    ar.u64(e.src1Prod);
    ar.u64(e.src2Prod);
    auto flags = static_cast<std::uint8_t>(
        (e.usesIntRename ? 1 : 0) | (e.usesFpRename ? 2 : 0) |
        (e.predictedTaken ? 4 : 0) | (e.mispredicted ? 8 : 0) |
        (e.missedL1 ? 16 : 0) | (e.missedL2 ? 32 : 0) |
        (e.missedTlb ? 64 : 0));
    ar.u8(flags);
    e.usesIntRename = (flags & 1) != 0;
    e.usesFpRename = (flags & 2) != 0;
    e.predictedTaken = (flags & 4) != 0;
    e.mispredicted = (flags & 8) != 0;
    e.missedL1 = (flags & 16) != 0;
    e.missedL2 = (flags & 32) != 0;
    e.missedTlb = (flags & 64) != 0;
    // A signed index travels as a 64-bit two's complement value.
    auto lsq = static_cast<std::uint64_t>(std::int64_t{e.lsqIndex});
    ar.u64(lsq);
    e.lsqIndex = static_cast<std::int32_t>(lsq);
    ar.u8(e.rsId);
    ar.u8(e.replays);
}

} // namespace

void
InstrWindow::checkpoint(ckpt::Archive &ar)
{
    ar.fixed32(capacity_, "instruction-window capacity differs");
    ar.u64(head_);
    ar.u64(tail_);
    ar.require(tail_ >= head_ && tail_ - head_ <= capacity_,
               "instruction-window occupancy out of range");
    for (std::uint64_t seq = head_; seq < tail_; ++seq) {
        WindowEntry &e = entry(seq);
        checkpointEntry(ar, e);
        ar.require(e.seq == seq,
                   "window entry sequence number out of place");
    }
}

} // namespace s64v
