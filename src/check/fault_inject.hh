/**
 * @file
 * Deliberate fault injection, used to prove the robustness machinery
 * actually detects the failures it claims to. One fault per process,
 * selected by the --inject-fault=<kind>:<n> flag (see
 * obs::parseObsArgs) or programmatically by tests:
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
 *   trace-corrupt:<rec>  writeTraceFile() bit-flips record <rec>'s
 *                        class byte before sealing the image
 *                        (readTraceFile() must reject the record via
 *                        fatal(), never crash).
 *   kill-point:<cycle>   the process dies abruptly (std::_Exit, no
 *                        atexit, no flushes) at that cycle of a run —
 *                        the model of a host OOM-kill or power cut
 *                        (the journal/resume machinery must recover).
 *   corrupt-ckpt:<off>   SnapshotWriter::writeFile() flips one bit of
 *                        the image it writes, a checkpoint (or a
 *                        trace file written while armed); the restore
 *                        must reject it via fatal(), never crash or
 *                        restore garbage.
 *   truncate-journal:<n> the n-th journal append (0-based) writes
 *                        only half its line and drops the rest — a
 *                        crash mid-append (resume must skip the torn
 *                        line and re-run that point).
 *
 * While any fault plan is armed, fatal() exits with
 * kInjectedFaultExitCode instead of 1, so harnesses watching a child
 * can tell an injected death from a genuine user error.
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
    TraceCorrupt,  ///< trace record `at` is bit-flipped on write.
    KillPoint,     ///< abrupt process death at cycle `at` of a run.
    CorruptCheckpoint, ///< one bit of a written checkpoint flipped.
    TruncateJournal,   ///< journal append `at` torn mid-line.
};

/**
 * Exit status used for process deaths caused by an injected fault:
 * the kill-point fault exits with it directly, and fatal() adopts it
 * while a plan is armed (see FaultPlan::parse / armFaultExitCode).
 */
constexpr int kInjectedFaultExitCode = 86;

/** Human-readable fault name ("stall", "kill-point", ...). */
const char *faultKindName(FaultKind kind);

/** One configured fault (or none). */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;
    std::uint64_t at = 0; ///< cycle, broadcast index, or record index.

    bool active(FaultKind k) const { return kind == k; }

    /**
     * Parse "<kind>:<n>" (e.g. "stall:5000"); fatal() on a malformed
     * specification.
     */
    void parse(const std::string &spec);

    void clear() { kind = FaultKind::None; at = 0; }
};

/**
 * Install kInjectedFaultExitCode as fatal()'s exit status iff the
 * active plan is armed (restore the default otherwise). parse() calls
 * this; tests that poke activeFaultPlan() directly may call it
 * themselves.
 */
void armFaultExitCode();

/** The process-wide plan consulted by the instrumented components. */
FaultPlan &activeFaultPlan();

} // namespace s64v::check

#endif // S64V_CHECK_FAULT_INJECT_HH
