/**
 * @file
 * Structured crash reports. A 400M-cycle run that dies with a
 * one-line panic message is nearly undebuggable after the fact; this
 * module captures the dying machine's state — current cycle, per-core
 * pipeline occupancy, the last committed instructions, in-flight
 * memory transactions — the moment panic() or fatal() is raised (via
 * the logging error hook), and also flushes a partial --stats-json
 * file so the observability outputs of a crashed run are not lost.
 * Single runs and sweeps share one sink and one document layout, and
 * the hook exists only while one of them is running.
 */

#ifndef S64V_CHECK_CRASH_REPORT_HH
#define S64V_CHECK_CRASH_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/run_obs.hh"

namespace s64v
{

class System;

namespace check
{

/**
 * Register the live System crash reports should capture; System::run
 * calls this on entry. Pass nullptr to unregister (a destroyed System
 * unregisters itself).
 */
void setCrashSystem(System *sys);

/** The currently registered system, or nullptr. */
System *crashSystem();

/**
 * Tag this thread's crash reports with the sweep point it is running
 * (per-thread, like the registered system): a report from a 100-point
 * parallel sweep then names the exact configuration that died instead
 * of leaving the reader to guess from core state. An empty label
 * clears the tag; SweepRunner sets and clears it around each point.
 */
void setCrashPoint(const std::string &label, std::size_t index);
void clearCrashPoint();

/**
 * Render @p sys's state plus the error that killed it as a JSON
 * document (see DESIGN.md "Robustness & self-checks" for the schema).
 * A @p seed other than ObsOptions::kUnset (the run's --seed=) is
 * stamped as "seed".
 */
std::string buildCrashReportJson(System &sys, const char *kind,
                                 const std::string &msg,
                                 std::uint64_t seed =
                                     obs::ObsOptions::kUnset);

/** Write @p json to @p path. @return false (with a warning) on I/O
 *  failure. */
bool writeCrashReport(const std::string &path, const std::string &json);

/**
 * The crash sink of one run or one sweep (PerfModel::run() and
 * exp::SweepRunner::run() each hold one), installed as the error hook
 * for the guard's lifetime. Each panic()/fatal() on a thread with a
 * registered system appends that system's report, stamped with
 * @p seed, to the list and atomically rewrites @p path (default
 * "crash_report.json") under one mutex as
 *
 *   {"schema": "s64v-crash-triage-1", "count": N,
 *    "crashes": [ <crash report>, ... ]}
 *
 * so concurrent dying sweep points never lose each other's entries.
 * A non-empty @p stats_salvage_path also receives the dying system's
 * partial stats JSON (single runs; a sweep writes no stats). Building
 * the guard empties the list and clears the calling thread's
 * registered system (an earlier run's machine is never this run's);
 * destroying it clears the hook and restores no earlier one, since no
 * run or sweep nests inside another.
 */
class ScopedCrashReporting
{
  public:
    ScopedCrashReporting(const std::string &path,
                         const std::string &stats_salvage_path,
                         std::uint64_t seed);
    ~ScopedCrashReporting();

    ScopedCrashReporting(const ScopedCrashReporting &) = delete;
    ScopedCrashReporting &
    operator=(const ScopedCrashReporting &) = delete;
};

/** Crashes recorded by the most recently built ScopedCrashReporting
 *  (still readable after it is destroyed). */
std::size_t crashCount();

} // namespace check
} // namespace s64v

#endif // S64V_CHECK_CRASH_REPORT_HH
