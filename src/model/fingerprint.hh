/**
 * @file
 * Configuration fingerprints: stable 64-bit hashes over the
 * timing-relevant parameters of a machine, a workload, or a trace.
 * The checkpoint format and the sweep run journal key their entries
 * on these, so a snapshot restored into a differently-configured
 * System — or a journal replayed against an edited sweep — is caught
 * up front with a clean diagnostic instead of silently diverging.
 *
 * Durability and self-check knobs (watchdog, check level, engine,
 * the --checkpoint-at trigger) are deliberately excluded: they never
 * change simulated timing, so flipping them must not invalidate a
 * checkpoint or force a sweep re-run. Observers (sampler, heartbeat)
 * carry their own periods and are not part of SystemParams at all.
 */

#ifndef S64V_MODEL_FINGERPRINT_HH
#define S64V_MODEL_FINGERPRINT_HH

#include <cstdint>
#include <string>

namespace s64v
{

struct SystemParams;
struct MachineParams;
struct WorkloadProfile;
class InstrTrace;

/**
 * Version string of the performance model implementation, recorded
 * in checkpoints and journals. Bump the trailing revision
 * whenever a change alters simulated timing, so stale artifacts are
 * rejected rather than mixed with new results.
 */
const char *modelVersionString();

/** Hash of every timing-relevant SystemParams field. */
std::uint64_t fingerprintSystemParams(const SystemParams &params);

/** fingerprintSystemParams() plus the configuration name. */
std::uint64_t fingerprintMachine(const MachineParams &machine);

/** Hash of a workload profile (mix, layouts, regions, seed). */
std::uint64_t fingerprintWorkload(const WorkloadProfile &profile);

/** Hash of a trace's record bytes and workload name. */
std::uint64_t fingerprintTrace(const InstrTrace &trace);

} // namespace s64v

#endif // S64V_MODEL_FINGERPRINT_HH
