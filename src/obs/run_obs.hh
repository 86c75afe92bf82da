/**
 * @file
 * Run options. Every entry point (quickstart, the per-figure bench
 * harnesses, the examples) accepts the same flags —
 * --stats-json=<path>, --trace-out=<path>, --sample-out=<path>,
 * sample-period=N, heartbeat=N, --threads=N, --seed=N, ... — parsed
 * once into an ObsOptions value that the entry point hands to the
 * two places that apply it: PerfModel for a single run and
 * exp::SweepRunner (through SweepOptions::run) for a sweep. Nothing
 * here is process-wide except the fault plan --inject-fault= arms
 * (check/fault_inject.hh); the crash sink that --crash-report= names
 * exists only while one of the two is running
 * (check::ScopedCrashReporting).
 */

#ifndef S64V_OBS_RUN_OBS_HH
#define S64V_OBS_RUN_OBS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hh"

namespace s64v::obs
{

/** What to record during a run, where to put it, and how to run. */
struct ObsOptions
{
    /** Sentinel for numeric options the command line did not set. */
    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

    /** End-of-run stats tree as JSON (empty = off). */
    std::string statsJsonPath;
    /** Chrome trace_events file (empty = off). */
    std::string traceOutPath;
    /** Konata/O3PipeView pipeline-trace file (empty = off). */
    std::string pipeviewOutPath;
    /** Interval-sample JSONL stream (empty = off). */
    std::string sampleOutPath;
    /** Cycles between interval samples (0 = default when enabled). */
    std::uint64_t samplePeriod = 0;
    /** Cycles between heartbeat lines (0 = off). */
    std::uint64_t heartbeatPeriod = 0;
    /**
     * Crash document path ("" = crash_report.json on crash): one
     * document per run or sweep, listing every crash in it.
     */
    std::string crashReportPath;
    /** Watchdog threshold override, cycles (kUnset = configured). */
    std::uint64_t watchdogCycles = kUnset;
    /** Check-level override (--check=off|end|cycle; none = configured). */
    std::optional<check::CheckLevel> checkLevel;
    /**
     * Worker threads for experiment sweeps (--threads=N; 0 = one per
     * hardware thread; see exp::SweepOptions::threads).
     */
    unsigned threads = 0;
    /**
     * False forces the plain per-cycle loop (--no-skip-ahead); true
     * leaves each machine's configured engine. Never part of a config
     * fingerprint — both engines produce bit-identical stats by
     * contract.
     */
    bool skipAhead = true;

    /** Checkpoint controls for single runs. @{ */
    std::uint64_t checkpointAt = 0; ///< trigger cycle (0 is valid).
    std::string checkpointOut;      ///< snapshot path ("" = off).
    bool checkpointStop = false;    ///< stop right after writing.
    std::string restorePath;        ///< restore this snapshot first.
    /** @} */

    /** Sweep durability (see exp::SweepRunner). @{ */
    /**
     * Run journal (empty = none, see exp/journal.hh): each point that
     * finishes ok is added to this file, which is rewritten whole and
     * fsynced before the result is merged, so a killed sweep can
     * resume. A file there that is not a journal is left alone and
     * the sweep runs without one.
     */
    std::string journalPath;
    /**
     * Replay the journal at journalPath before dispatching
     * (--resume=<path> sets both): a point whose entry still matches
     * is prefilled from it (bit-identical merge, doubles round-trip
     * exactly) and not re-run; every other point runs once. An entry
     * whose config/workload hashes no longer match is ignored with a
     * warning.
     */
    bool resume = false;
    /** @} */

    /**
     * Run seed (--seed=N; kUnset = none given). When set, workload
     * trace synthesis mixes it into each profile's own seed (see
     * effectiveWorkloadSeed), so a run is replayable byte-for-byte
     * from the one number. It is stamped into the stats JSON
     * ("run.seed") and crash reports ("seed").
     */
    std::uint64_t seed = kUnset;
};

/**
 * A workload profile's trace-synthesis seed under a run's --seed=
 * policy: @p profile_seed itself when @p run_seed is kUnset, else
 * mixSeeds(run_seed, profile_seed) — distinct workloads keep distinct
 * streams while the whole run re-keys off one number.
 */
std::uint64_t effectiveWorkloadSeed(std::uint64_t run_seed,
                                    std::uint64_t profile_seed);

/**
 * Parse the run flags out of @p argv.
 * Every flag is accepted with or without the leading dashes. The
 * recording flags "stats-json=", "trace-out=", "pipeview-out=",
 * "sample-out=", "sample-period=" and "heartbeat=" apply to single
 * runs (the models a sweep embeds write nothing); the self-check flags
 * "crash-report=", "watchdog=" (cycles, 0 = off), "check="
 * (off/end/cycle) and "inject-fault=<kind>:<n>" (see
 * check/fault_inject.hh); the single-run durability flags
 * "checkpoint-at=<cycle>", "checkpoint-out=<path>", "checkpoint-stop"
 * and "restore=<path>"; the sweep flags "threads=" (worker threads,
 * 0 = hardware concurrency), "journal=<path>" and
 * "resume=<journal>"; "seed=<n>"; and "no-skip-ahead". A numeric
 * value that is not a whole unsigned integer (see parseU64) is
 * fatal(). "inject-fault=" arms the
 * process-wide check::activeFaultPlan(); every other flag lands only
 * in the returned value.
 *
 * @param rest if non-null, receives the arguments after argv[0] that
 * are none of these, in order — what is left for the caller's own
 * option parsing, which then owns rejecting what it does not know.
 * If null, the first such argument is fatal(), named in the message.
 */
ObsOptions parseObsArgs(int argc, const char *const *argv,
                        std::vector<std::string> *rest = nullptr);

} // namespace s64v::obs

#endif // S64V_OBS_RUN_OBS_HH
