#include "mem/ras.hh"

#include <cmath>

#include "ckpt/snapshot.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"

namespace s64v
{

ErrorProcess::ErrorProcess(const RasParams &params,
                           const std::string &name,
                           stats::Group *parent)
    : params_(params), statGroup_(name, parent),
      corrected_(statGroup_.scalar("corrected_errors",
                                   "correctable errors fixed in "
                                   "line"))
{
    if (params_.errorsPerMAccess < 0.0)
        fatal("ras '%s': negative error rate", name.c_str());
    // Map the rate onto a 20-bit comparison threshold: an access
    // fires when hash(ordinal) mod 2^20 < threshold.
    const double per_access = params_.errorsPerMAccess / 1e6;
    threshold_ = static_cast<std::uint64_t>(
        std::llround(per_access * (1 << 20)));
    if (params_.errorsPerMAccess > 0.0 && threshold_ == 0)
        threshold_ = 1; // keep tiny rates observable.
}

unsigned
ErrorProcess::onAccess()
{
    if (threshold_ == 0)
        return 0;
    const std::uint64_t h = mix64(++ordinal_) & ((1 << 20) - 1);
    if (h < threshold_) {
        ++corrected_;
        return params_.correctionLatency;
    }
    return 0;
}

void
ErrorProcess::checkpoint(ckpt::Archive &ar)
{
    ar.u64(ordinal_);
}

} // namespace s64v
