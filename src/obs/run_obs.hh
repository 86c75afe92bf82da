/**
 * @file
 * Process-wide observability options. Every entry point (quickstart,
 * the per-figure bench harnesses, the examples) accepts the same
 * flags — --stats-json=<path>, --trace-out=<path>,
 * --sample-out=<path>, sample-period=N, heartbeat=N, --threads=N —
 * parsed once into this global; PerfModel::run() consults it and
 * attaches the matching observers to every single-run System it
 * builds, and the sweep runner (exp/sweep.hh) reads `threads` to size
 * its pool.
 */

#ifndef S64V_OBS_RUN_OBS_HH
#define S64V_OBS_RUN_OBS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace s64v::obs
{

/** What to record during model runs, and where to put it. */
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
    /** Crash-report JSON path ("" = crash_report.json on crash). */
    std::string crashReportPath;
    /** Watchdog threshold override, cycles (kUnset = configured). */
    std::uint64_t watchdogCycles = kUnset;
    /** Check-level override: "off"/"end"/"cycle" ("" = configured). */
    std::string checkLevel;
    /**
     * Worker threads for experiment sweeps (--threads=N; 0 = one per
     * hardware thread). Read-only while any sweep is running.
     */
    unsigned threads = 0;
    /**
     * False forces the plain per-cycle loop (--no-skip-ahead); true
     * leaves each machine's configured engine. Never part of a config
     * fingerprint — both engines produce bit-identical stats by
     * contract.
     */
    bool skipAhead = true;

    /** Checkpoint controls for non-embedded runs. @{ */
    std::uint64_t checkpointAt = 0; ///< trigger cycle (0 is valid).
    std::string checkpointOut;      ///< snapshot path ("" = off).
    bool checkpointStop = false;    ///< stop right after writing.
    std::string restorePath;        ///< restore this snapshot first.
    /** @} */

    /** Sweep durability defaults (see exp::SweepOptions). @{ */
    std::string journalPath;     ///< write-ahead run journal.
    bool resume = false;         ///< replay the journal first.
    bool watchdogEscalate = false; ///< emergency-checkpoint hung points.
    /** @} */

    /**
     * Process-wide randomness seed (--seed=N; kUnset = none given).
     * When set, every source of randomness derives from it — workload
     * trace synthesis mixes it into each profile's own seed (see
     * effectiveWorkloadSeed), and the chaos campaign engine seeds its
     * fuzzer and fault storms from it — so a run or campaign point is
     * replayable byte-for-byte from the one number. The effective
     * seed is printed in stats JSON ("run.seed") and crash reports
     * ("seed").
     */
    std::uint64_t seed = kUnset;
};

/** The process-wide options PerfModel::run() consults. */
ObsOptions &runObsOptions();

/** True when a process-wide --seed= was given. */
bool globalSeedSet();

/**
 * A workload profile's trace-synthesis seed under the process-wide
 * seed policy: @p profile_seed itself when no --seed= was given, else
 * mixSeeds(global, profile_seed) — distinct workloads keep distinct
 * streams while the whole process re-keys off one number.
 */
std::uint64_t effectiveWorkloadSeed(std::uint64_t profile_seed);

/**
 * Parse the observability flags out of @p argv into runObsOptions().
 * Every flag is accepted with or without the leading dashes. The
 * recording flags "stats-json=", "trace-out=", "pipeview-out=",
 * "sample-out=", "sample-period=" and "heartbeat=" apply to single
 * runs (the models a sweep embeds write nothing); the self-check flags
 * "crash-report=", "watchdog=" (cycles, 0 = off), "check="
 * (off/end/cycle) and "inject-fault=<kind>:<n>" (see
 * check/fault_inject.hh); the single-run durability flags
 * "checkpoint-at=<cycle>", "checkpoint-out=<path>", "checkpoint-stop"
 * and "restore=<path>"; the sweep flags "threads=" (worker threads,
 * 0 = hardware concurrency), "journal=<path>", "resume" /
 * "resume=<journal>" and "watchdog-escalate"; "seed=<n>"; and
 * "no-skip-ahead". A numeric value that is not a whole unsigned
 * integer (see parseU64) is fatal().
 *
 * @return the arguments after argv[0] that are none of these, in
 * order — what is left for the caller's own option parsing.
 */
std::vector<std::string> parseObsArgs(int argc,
                                      const char *const *argv);

} // namespace s64v::obs

#endif // S64V_OBS_RUN_OBS_HH
