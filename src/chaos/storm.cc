#include "chaos/storm.hh"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <thread>
#include <utility>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "check/fault_inject.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"

namespace s64v::chaos
{

namespace
{

/** Seed-stream discriminator for storm case selection. */
constexpr std::uint64_t kStormStream = 0x73746f726dull; // "storm"

/** Per-case deadline before the child is declared hung and killed. */
constexpr int kCaseTimeoutMs = 30'000;

/** Tight watchdog for the stall scenarios, so storms stay fast. */
constexpr std::uint64_t kStormWatchdogCycles = 1500;

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

/** Crash-report path for one storm case (written by the child,
 *  removed by the parent). */
std::string
crashReportName(const ChaosPoint &p)
{
    return fmt("chaos_storm.%d.%zu.crash.tmp",
               static_cast<int>(::getpid()), p.index);
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

// --- child side ---------------------------------------------------

/**
 * Common child setup: silence advisory output, let panic()/fatal()
 * really terminate, and arm the fault plan.
 * @return the child's run options: its crash-report path and nothing
 * else, so its traces are the point's own (see ChaosPoint::traces).
 */
obs::ObsOptions
setupChild(const std::string &crash_path, check::FaultKind kind,
           std::uint64_t at)
{
    setLogLevel(LogLevel::Silent);
    setThrowOnError(false);
    check::activeFaultPlan().kind = kind;
    check::activeFaultPlan().at = at;
    obs::ObsOptions run;
    run.crashReportPath = crash_path;
    return run;
}

/** Full-system run of the point's own machine (stall / lost-grant /
 *  kill-point scenarios). */
[[noreturn]] void
childRunPoint(const ChaosPoint &p, obs::ObsOptions run,
              bool tight_watchdog)
{
    if (tight_watchdog)
        run.watchdogCycles = kStormWatchdogCycles;
    PerfModel model(p.machine(), run);
    model.loadWorkload(p.profile(), p.instrs);
    model.run();
    std::_Exit(0);
}

/** 2-CPU TPC-C run with the end-of-run coherence audit on, so a
 *  dropped invalidation is observable. End-of-run, not per-cycle:
 *  the per-cycle audit scans every cache line every cycle and slows
 *  the run ~1000x, which reads as a hang to the case deadline; the
 *  stale-sharer state a lost broadcast leaves behind survives to the
 *  final audit anyway (unless natural eviction repairs it, in which
 *  case a clean exit is a correct outcome). */
[[noreturn]] void
childRunCoherent(const ChaosPoint &p, obs::ObsOptions run)
{
    run.watchdogCycles = kStormWatchdogCycles;
    run.checkLevel = check::CheckLevel::EndOfRun;
    ChaosPoint q = p;
    q.workload = "tpcc";
    q.numCpus = 2;
    PerfModel model(q.machine(), run);
    model.loadWorkload(q.profile(), q.instrs);
    model.run();
    std::_Exit(0);
}

[[noreturn]] void
runStormChild(const ChaosPoint &p, check::FaultKind kind,
              std::uint64_t at, const std::string &crash_path)
{
    const obs::ObsOptions run = setupChild(crash_path, kind, at);
    switch (kind) {
      case check::FaultKind::CommitStall:
      case check::FaultKind::LostGrant:
        childRunPoint(p, run, /*tight_watchdog=*/true);
      case check::FaultKind::KillPoint:
        childRunPoint(p, run, /*tight_watchdog=*/false);
      case check::FaultKind::LostInvalidate:
        childRunCoherent(p, run);
      case check::FaultKind::None:
        break;
    }
    std::_Exit(0);
}

// --- parent side --------------------------------------------------

struct ChildOutcome
{
    bool hung = false;
    int status = 0; ///< raw waitpid status (valid when !hung).
};

/** Reap @p pid, SIGKILLing it after the case deadline. */
ChildOutcome
awaitChild(pid_t pid)
{
    using clock = std::chrono::steady_clock;
    const auto deadline =
        clock::now() + std::chrono::milliseconds(kCaseTimeoutMs);
    ChildOutcome out;
    for (;;) {
        const pid_t got = ::waitpid(pid, &out.status, WNOHANG);
        if (got == pid)
            return out;
        if (got < 0) { // should not happen; treat as a hang.
            out.hung = true;
            return out;
        }
        if (clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &out.status, 0);
            out.hung = true;
            return out;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

std::string
describeOutcome(const ChildOutcome &o)
{
    if (o.hung)
        return fmt("hang (killed after %d ms)", kCaseTimeoutMs);
    if (WIFEXITED(o.status))
        return fmt("exit status %d", WEXITSTATUS(o.status));
    if (WIFSIGNALED(o.status))
        return fmt("signal %d", WTERMSIG(o.status));
    return "unknown wait status";
}

bool exitedWith(const ChildOutcome &o, int code)
{
    return !o.hung && WIFEXITED(o.status) &&
        WEXITSTATUS(o.status) == code;
}

bool abortedBySignal(const ChildOutcome &o)
{
    return !o.hung && WIFSIGNALED(o.status) &&
        WTERMSIG(o.status) == SIGABRT;
}

/**
 * Check one reaped case against the per-kind contract; nullopt when
 * the outcome is allowed.
 */
std::optional<Violation>
classifyCase(check::FaultKind kind, std::uint64_t at,
             const ChildOutcome &o, const std::string &crash_path)
{
    const std::string name = check::faultKindName(kind);
    auto violation = [&](const char *mode, const std::string &why) {
        return Violation{
            "storm", "storm:" + name + ":" + mode,
            fmt("fault %s:%llu -> %s (%s)", name.c_str(),
                static_cast<unsigned long long>(at),
                describeOutcome(o).c_str(), why.c_str())};
    };

    if (o.hung)
        return violation("hang", "the contract forbids hangs");

    switch (kind) {
      case check::FaultKind::CommitStall:
      case check::FaultKind::LostGrant:
      case check::FaultKind::LostInvalidate:
        // Watchdog / coherence audit panic, or a clean run when the
        // fault position lies beyond the run.
        if (abortedBySignal(o)) {
            if (!fileExists(crash_path)) {
                return violation("no-crash-report",
                                 "abort left no crash report");
            }
            return std::nullopt;
        }
        if (exitedWith(o, 0))
            return std::nullopt;
        return violation("bad-exit", "expected SIGABRT or exit 0");

      case check::FaultKind::KillPoint:
        if (exitedWith(o, check::kInjectedFaultExitCode) ||
            exitedWith(o, 0))
            return std::nullopt;
        return violation(
            "bad-exit",
            fmt("expected exit %d or 0",
                check::kInjectedFaultExitCode));

      case check::FaultKind::None:
        break;
    }
    return violation("bad-exit", "unexpected fault kind");
}

/** Seeded fault position, scaled to where each kind can fire. */
std::uint64_t
rollFaultPosition(check::FaultKind kind, Rng &rng)
{
    switch (kind) {
      case check::FaultKind::CommitStall:
      case check::FaultKind::LostGrant:
      case check::FaultKind::KillPoint:
        return rng.below(6000); // cycle; sometimes beyond the run.
      case check::FaultKind::LostInvalidate:
        return rng.below(64); // broadcast index.
      case check::FaultKind::None:
        break;
    }
    return 0;
}

} // namespace

std::optional<Violation>
runFaultStorm(const ChaosPoint &p)
{
    static const check::FaultKind kKinds[] = {
        check::FaultKind::CommitStall,
        check::FaultKind::LostGrant,
        check::FaultKind::LostInvalidate,
        check::FaultKind::KillPoint,
    };

    Rng rng(mixSeeds(p.pointSeed, kStormStream));
    // Uniform draw of kStormCasesPerPoint distinct kinds (partial
    // Fisher-Yates).
    std::vector<check::FaultKind> kinds(std::begin(kKinds),
                                        std::end(kKinds));
    for (std::size_t i = 0;
         i < kStormCasesPerPoint && i < kinds.size(); ++i) {
        const std::size_t j = i + static_cast<std::size_t>(
                                      rng.below(kinds.size() - i));
        std::swap(kinds[i], kinds[j]);
    }

    for (std::size_t c = 0;
         c < kStormCasesPerPoint && c < kinds.size(); ++c) {
        const check::FaultKind kind = kinds[c];
        const std::uint64_t at = rollFaultPosition(kind, rng);
        const std::string crash = crashReportName(p);
        std::remove(crash.c_str());

        std::fflush(nullptr); // no duplicated stdio after fork.
        const pid_t pid = ::fork();
        if (pid < 0) {
            warn("storm: fork failed; skipping case %s",
                 check::faultKindName(kind));
            continue;
        }
        if (pid == 0)
            runStormChild(p, kind, at, crash); // never returns.

        const ChildOutcome outcome = awaitChild(pid);
        std::optional<Violation> v =
            classifyCase(kind, at, outcome, crash);
        std::remove(crash.c_str());
        if (v)
            return v;
    }
    return std::nullopt;
}

} // namespace s64v::chaos
