#include "check/fault_inject.hh"

#include "common/config.hh"
#include "common/logging.hh"

namespace s64v::check
{

FaultPlan &
activeFaultPlan()
{
    static FaultPlan plan;
    return plan;
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::CommitStall: return "stall";
      case FaultKind::LostGrant: return "lost-grant";
      case FaultKind::LostInvalidate: return "lost-inval";
      case FaultKind::TraceCorrupt: return "trace-corrupt";
      case FaultKind::KillPoint: return "kill-point";
      case FaultKind::CorruptCheckpoint: return "corrupt-ckpt";
      case FaultKind::TruncateJournal: return "truncate-journal";
    }
    return "unknown";
}

void
armFaultExitCode()
{
    setFatalExitCode(activeFaultPlan().kind != FaultKind::None
                         ? kInjectedFaultExitCode
                         : 0);
}

void
FaultPlan::parse(const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon + 1 >= spec.size())
        fatal("--inject-fault: expected <kind>:<n>, got '%s'",
              spec.c_str());

    const std::string name = spec.substr(0, colon);
    if (name == "stall")
        kind = FaultKind::CommitStall;
    else if (name == "lost-grant")
        kind = FaultKind::LostGrant;
    else if (name == "lost-inval")
        kind = FaultKind::LostInvalidate;
    else if (name == "trace-corrupt")
        kind = FaultKind::TraceCorrupt;
    else if (name == "kill-point")
        kind = FaultKind::KillPoint;
    else if (name == "corrupt-ckpt")
        kind = FaultKind::CorruptCheckpoint;
    else if (name == "truncate-journal")
        kind = FaultKind::TruncateJournal;
    else
        fatal("--inject-fault: unknown fault kind '%s' (expected "
              "stall, lost-grant, lost-inval, trace-corrupt, "
              "kill-point, corrupt-ckpt, or truncate-journal)",
              name.c_str());

    at = parseU64(spec.substr(colon + 1), "--inject-fault count");
    if (this == &activeFaultPlan())
        armFaultExitCode();
}

} // namespace s64v::check
