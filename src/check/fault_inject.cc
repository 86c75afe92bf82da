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
      case FaultKind::KillPoint: return "kill-point";
    }
    return "unknown";
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
    else if (name == "kill-point")
        kind = FaultKind::KillPoint;
    else
        fatal("--inject-fault: unknown fault kind '%s' (expected "
              "stall, lost-grant, lost-inval, or kill-point)",
              name.c_str());

    at = parseU64(spec.substr(colon + 1), "--inject-fault count");
}

} // namespace s64v::check
