/**
 * @file
 * RAS (reliability / availability / serviceability) modelling. The
 * paper names RAS as one of the three key SPARC64 V features (§1,
 * §7): the real chip protects its caches with ECC, corrects
 * single-bit errors in line, and can degrade a failing cache way
 * while continuing to run. This module models the *performance* side
 * of those mechanisms: a deterministic error process, the added
 * correction latency, and degraded-way operation.
 */

#ifndef S64V_MEM_RAS_HH
#define S64V_MEM_RAS_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"

namespace s64v
{

/** RAS configuration for one cache. */
struct RasParams
{
    /**
     * Correctable-error rate, in errors per million accesses.
     * 0 disables error injection (the default: healthy silicon).
     */
    double errorsPerMAccess = 0.0;
    /** Extra cycles for an in-line ECC correction. */
    unsigned correctionLatency = 10;
    /**
     * Number of cache ways disabled by the degradation mechanism
     * (a persistent fault isolated by the service processor).
     */
    unsigned degradedWays = 0;
};

/**
 * Deterministic correctable-error process: given an access ordinal,
 * decides whether this access observes a correctable error. The
 * process is a hash over the ordinal so runs stay reproducible.
 */
class ErrorProcess
{
  public:
    ErrorProcess(const RasParams &params, const std::string &name,
                 stats::Group *parent);

    /**
     * @return the extra latency this access pays (0 almost always;
     * correctionLatency when the deterministic process fires).
     */
    unsigned onAccess();

    std::uint64_t correctedErrors() const
    {
        return corrected_.value();
    }

    bool enabled() const { return threshold_ != 0; }

    /**
     * Write or read the access ordinal (checkpoint/restore): the
     * process is a pure hash over it, so it is the entire replayable
     * state.
     */
    void checkpoint(ckpt::Archive &ar);

  private:
    RasParams params_;
    std::uint64_t threshold_ = 0; ///< compare against 20-bit hash.
    std::uint64_t ordinal_ = 0;

    stats::Group statGroup_;
    stats::Scalar &corrected_;
};

} // namespace s64v

#endif // S64V_MEM_RAS_HH
