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
saveWindowEntry(ckpt::SnapshotWriter &w, const WindowEntry &e)
{
    w.putBytes(&e.rec, sizeof(e.rec));
    w.putU64(e.seq);
    w.putU8(static_cast<std::uint8_t>(e.state));
    w.putU64(e.issueCycle);
    w.putU64(e.dispatchCycle);
    w.putU64(e.execCycle);
    w.putU64(e.doneCycle);
    w.putU64(e.predReady);
    w.putU64(e.actualReady);
    w.putU64(e.missKnownAt);
    w.putU64(e.notBefore);
    w.putU64(e.src1Prod);
    w.putU64(e.src2Prod);
    w.putU8(static_cast<std::uint8_t>(
        (e.usesIntRename ? 1 : 0) | (e.usesFpRename ? 2 : 0) |
        (e.predictedTaken ? 4 : 0) | (e.mispredicted ? 8 : 0) |
        (e.missedL1 ? 16 : 0) | (e.missedL2 ? 32 : 0) |
        (e.missedTlb ? 64 : 0)));
    w.putI64(e.lsqIndex);
    w.putU8(e.rsId);
    w.putU8(e.replays);
}

void
restoreWindowEntry(ckpt::SnapshotReader &r, WindowEntry &e)
{
    r.getBytes(&e.rec, sizeof(e.rec));
    r.require(recordValid(e.rec),
              "window record has an out-of-range class or register");
    e.seq = r.getU64();
    const std::uint8_t state = r.getU8();
    r.require(state <= static_cast<std::uint8_t>(InstrState::Done),
              "window entry state out of range");
    e.state = static_cast<InstrState>(state);
    e.issueCycle = r.getU64();
    e.dispatchCycle = r.getU64();
    e.execCycle = r.getU64();
    e.doneCycle = r.getU64();
    e.predReady = r.getU64();
    e.actualReady = r.getU64();
    e.missKnownAt = r.getU64();
    e.notBefore = r.getU64();
    e.src1Prod = r.getU64();
    e.src2Prod = r.getU64();
    const std::uint8_t flags = r.getU8();
    e.usesIntRename = (flags & 1) != 0;
    e.usesFpRename = (flags & 2) != 0;
    e.predictedTaken = (flags & 4) != 0;
    e.mispredicted = (flags & 8) != 0;
    e.missedL1 = (flags & 16) != 0;
    e.missedL2 = (flags & 32) != 0;
    e.missedTlb = (flags & 64) != 0;
    e.lsqIndex = static_cast<std::int32_t>(r.getI64());
    e.rsId = r.getU8();
    e.replays = r.getU8();
}

} // namespace

void
InstrWindow::saveState(ckpt::SnapshotWriter &w) const
{
    w.putU32(capacity_);
    w.putU64(head_);
    w.putU64(tail_);
    for (std::uint64_t seq = head_; seq < tail_; ++seq)
        saveWindowEntry(w, entry(seq));
}

void
InstrWindow::restoreState(ckpt::SnapshotReader &r)
{
    r.require(r.getU32() == capacity_,
              "instruction-window capacity differs");
    head_ = r.getU64();
    tail_ = r.getU64();
    r.require(tail_ >= head_ && tail_ - head_ <= capacity_,
              "instruction-window occupancy out of range");
    for (std::uint64_t seq = head_; seq < tail_; ++seq) {
        WindowEntry &e = entry(seq);
        restoreWindowEntry(r, e);
        r.require(e.seq == seq,
                  "window entry sequence number out of place");
    }
}

} // namespace s64v
