/**
 * @file
 * Structured crash reports. A 400M-cycle run that dies with a
 * one-line panic message is nearly undebuggable after the fact; this
 * module captures the dying machine's state — current cycle, per-core
 * pipeline occupancy, the last committed instructions, in-flight
 * memory transactions — as a JSON document the moment panic() or
 * fatal() is raised (via the logging error hook), and also flushes a
 * partial --stats-json file so the observability outputs of a crashed
 * run are not lost.
 */

#ifndef S64V_CHECK_CRASH_REPORT_HH
#define S64V_CHECK_CRASH_REPORT_HH

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
 * Install the logging error hook: on panic()/fatal(), write a crash
 * report stamped with @p seed for the registered system to @p path
 * (default "crash_report.json" when empty) and, when
 * @p stats_json_path is non-empty, salvage the partial stats JSON
 * there.
 */
void installCrashReporting(const std::string &path,
                           const std::string &stats_json_path,
                           std::uint64_t seed);

/**
 * Install the error hook in sweep-triage mode: under a parallel
 * sweep, several points can fail in one process, and each writing a
 * whole-file report would leave only the last writer's point on disk.
 * This sink instead holds one mutex, appends a per-point entry
 * (sweep-point label/index plus the full per-crash report) to an
 * in-memory list, and atomically rewrites @p path (default
 * "crash_report.json") as one aggregated document
 *
 *   {"schema": "s64v-crash-triage-1", "count": N,
 *    "crashes": [ <crash report>, ... ]}
 *
 * after every crash, so the file always names every point that died
 * so far. Each entry is stamped with @p seed. A sweep writes no stats
 * JSON, so there is nothing to salvage. Installing resets the list.
 * Uninstall with uninstallCrashReporting() as usual.
 */
void installSweepCrashTriage(const std::string &path,
                             std::uint64_t seed);

/** Crashes recorded by the triage sink since its install. */
std::size_t sweepCrashCount();

/** Remove the error hook installed by installCrashReporting() /
 *  installSweepCrashTriage(). */
void uninstallCrashReporting();

} // namespace check
} // namespace s64v

#endif // S64V_CHECK_CRASH_REPORT_HH
