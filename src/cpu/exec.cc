#include "cpu/exec.hh"

#include "ckpt/snapshot.hh"

namespace s64v
{

void
ExecUnit::checkpoint(ckpt::Archive &ar)
{
    ar.u64(busyUntil_);
    ar.list(pending_, [&](PendingExec &p) {
        ar.u64(p.seq);
        ar.u64(p.execStart);
    });
}

} // namespace s64v
