/**
 * @file
 * Deliberate fault injection, used to prove the robustness machinery
 * actually detects the failures it claims to. Every fault acts on the
 * simulated machine, or on the process at a simulated cycle; damaged
 * files are the byte-level fuzz tests' job, since every file the
 * simulator reads back is one checksummed container (ckpt/snapshot.hh).
 * One fault per process, selected by the --inject-fault=<kind>:<n>
 * flag (see obs::parseObsArgs) or programmatically by tests:
 *
 *   stall:<cycle>        every core stops committing at that cycle
 *                        (the watchdog must fire and abort).
 *   lost-grant:<cycle>   the system bus stops granting from that
 *                        cycle; pending transfers never complete
 *                        (the watchdog must fire despite the
 *                        "in-flight" event).
 *   lost-inval:<n>       the n-th invalidation broadcast (0-based) is
 *                        dropped, leaving stale sharers (the
 *                        invariant auditor must catch the MOESI
 *                        violation).
 *   kill-point:<cycle>   the process dies abruptly (std::_Exit with
 *                        kInjectedFaultExitCode, no atexit, no
 *                        flushes) at that cycle of a run — the model
 *                        of a host OOM-kill or power cut (the
 *                        journal/resume machinery must recover).
 *
 * An armed plan does not change how fatal() exits: always status 1.
 */

#ifndef S64V_CHECK_FAULT_INJECT_HH
#define S64V_CHECK_FAULT_INJECT_HH

#include <cstdint>
#include <string>

namespace s64v::check
{

/** The failure modes the injector can create. */
enum class FaultKind : std::uint8_t
{
    None,
    CommitStall,   ///< cores stop committing at cycle `at`.
    LostGrant,     ///< bus grants stop at cycle `at`.
    LostInvalidate,///< invalidation broadcast number `at` is dropped.
    KillPoint,     ///< abrupt process death at cycle `at` of a run.
};

/** Exit status of a process killed by the kill-point fault. */
constexpr int kInjectedFaultExitCode = 86;

/** Human-readable fault name ("stall", "kill-point", ...). */
const char *faultKindName(FaultKind kind);

/** One configured fault (or none). */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;
    std::uint64_t at = 0; ///< cycle, or broadcast index.

    bool active(FaultKind k) const { return kind == k; }

    /**
     * Parse "<kind>:<n>" (e.g. "stall:5000"); fatal() on a malformed
     * specification.
     */
    void parse(const std::string &spec);

    void clear() { kind = FaultKind::None; at = 0; }
};

/** The process-wide plan consulted by the instrumented components. */
FaultPlan &activeFaultPlan();

} // namespace s64v::check

#endif // S64V_CHECK_FAULT_INJECT_HH
