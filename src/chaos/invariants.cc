#include "chaos/invariants.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include <unistd.h>

#include "chaos/storm.hh"
#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "exp/sweep.hh"
#include "golden/checker.hh"
#include "model/perf_model.hh"
#include "obs/stats_export.hh"
#include "sim/system.hh"

namespace s64v::chaos
{

namespace
{

/** Seed-stream discriminator for the checkpoint-cut position. */
constexpr std::uint64_t kCkptStream = 0x636b7074ull; // "ckpt"

/**
 * Tolerances. The metamorphic relations are monotone in the
 * *architecture* but not bit-exact in the *statistics*: MSHR merges
 * count as misses, and any timing shift re-partitions misses between
 * new-miss and merge, so small counted-miss regressions under a
 * strictly better configuration are legitimate. The bands are wide
 * enough for that jitter and narrow enough that a systematic
 * accounting bug (e.g. the seeded double-count) cannot hide.
 * @{
 */
constexpr double kCacheMonoRelTol = 0.03;
constexpr double kCacheMonoAbsTol = 32.0;
constexpr double kIssueMonoRelTol = 0.05;
constexpr double kWarmupBandRelTol = 0.60;
constexpr double kGoldenSlack = 2.5;
/** @} */

/** Outcome of one in-process model run for invariant checking. */
struct PointOutcome
{
    bool ok = false;
    std::string error;
    SimResult sim;
    std::uint64_t l2Misses = 0;
};

using TraceSet = std::vector<std::shared_ptr<const InstrTrace>>;

/** Run @p machine on @p traces in-process; panics become errors. */
PointOutcome
runMachine(MachineParams machine, const ChaosPoint &p,
           const TraceSet &traces, std::uint64_t warmup_instrs)
{
    PointOutcome out;
    machine.sys.warmupInstrs = warmup_instrs;
    ScopedThrowOnError isolate;
    try {
        PerfModel model(machine);
        for (CpuId cpu = 0; cpu < p.numCpus; ++cpu)
            model.loadTrace(cpu, traces[cpu]);
        out.sim = model.prepare().run();
        MemSystem &mem = model.system().mem();
        for (CpuId cpu = 0; cpu < mem.numCpus(); ++cpu)
            out.l2Misses += mem.l2(cpu).misses();
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

PointOutcome
runMachine(const MachineParams &machine, const ChaosPoint &p,
           const TraceSet &traces)
{
    return runMachine(machine, p, traces, standardWarmup(p.instrs));
}

/** A run that dies is always a finding, whatever the invariant. */
Violation
panicViolation(const std::string &inv, const std::string &variant,
               const std::string &error)
{
    return Violation{inv, inv + ":point-panic",
                     variant + " run died: " + error};
}

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

// --- cache-mono ---------------------------------------------------

std::optional<Violation>
checkCacheMono(const ChaosPoint &p)
{
    const TraceSet traces = p.traces();
    const MachineParams base = p.machine();
    MachineParams grown = base;
    grown.sys.mem.l2.sizeBytes *= 4;
    grown.name += "-l2x4";

    const PointOutcome a = runMachine(base, p, traces);
    if (!a.ok)
        return panicViolation("cache-mono", "base", a.error);
    const PointOutcome b = runMachine(grown, p, traces);
    if (!b.ok)
        return panicViolation("cache-mono", "grown-L2", b.error);

    const double limit = static_cast<double>(a.l2Misses) +
        std::max(static_cast<double>(a.l2Misses) * kCacheMonoRelTol,
                 kCacheMonoAbsTol);
    if (static_cast<double>(b.l2Misses) > limit) {
        return Violation{
            "cache-mono", "cache-mono:miss-increase",
            fmt("L2 grown 4x (%llu -> %llu bytes) increased misses "
                "%llu -> %llu (limit %.0f)",
                static_cast<unsigned long long>(
                    base.sys.mem.l2.sizeBytes),
                static_cast<unsigned long long>(
                    grown.sys.mem.l2.sizeBytes),
                static_cast<unsigned long long>(a.l2Misses),
                static_cast<unsigned long long>(b.l2Misses), limit)};
    }
    return std::nullopt;
}

// --- issue-mono ---------------------------------------------------

std::optional<Violation>
checkIssueMono(const ChaosPoint &p)
{
    const TraceSet traces = p.traces();
    const MachineParams base = p.machine();
    const unsigned width = base.sys.core.issueWidth;

    const PointOutcome a = runMachine(base, p, traces);
    if (!a.ok)
        return panicViolation("issue-mono", "base", a.error);

    if (width < 4) {
        // Widen: more issue slots must not lose IPC beyond noise.
        const PointOutcome b = runMachine(
            withIssueWidth(base, 4), p, traces);
        if (!b.ok)
            return panicViolation("issue-mono", "widened", b.error);
        if (b.sim.ipc < a.sim.ipc * (1.0 - kIssueMonoRelTol)) {
            return Violation{
                "issue-mono", "issue-mono:wider-slower",
                fmt("widening issue %u -> 4 dropped IPC %.4f -> "
                    "%.4f (tolerance %.0f%%)",
                    width, a.sim.ipc, b.sim.ipc,
                    kIssueMonoRelTol * 100)};
        }
    } else {
        // Narrow: fewer issue slots must not gain IPC beyond noise.
        const PointOutcome b = runMachine(
            withIssueWidth(base, 2), p, traces);
        if (!b.ok)
            return panicViolation("issue-mono", "narrowed", b.error);
        if (b.sim.ipc > a.sim.ipc * (1.0 + kIssueMonoRelTol)) {
            return Violation{
                "issue-mono", "issue-mono:narrower-faster",
                fmt("narrowing issue %u -> 2 raised IPC %.4f -> "
                    "%.4f (tolerance %.0f%%)",
                    width, a.sim.ipc, b.sim.ipc,
                    kIssueMonoRelTol * 100)};
        }
    }
    return std::nullopt;
}

// --- ckpt-replay --------------------------------------------------

std::optional<Violation>
checkCkptReplay(const ChaosPoint &p)
{
    const TraceSet traces = p.traces();
    MachineParams m = p.machine();
    m.sys.warmupInstrs = standardWarmup(p.instrs);

    const std::string path = fmt("chaos_ckpt.%d.%zu.tmp",
                                 static_cast<int>(::getpid()),
                                 p.index);
    ScopedThrowOnError isolate;
    try {
        SimResult full;
        std::string fullStats;
        {
            System sys(m.sys, m.name);
            for (CpuId cpu = 0; cpu < p.numCpus; ++cpu)
                sys.attachTrace(cpu, traces[cpu]);
            full = sys.run();
            fullStats = obs::exportStatsJson(sys.root());
        }
        if (full.cycles < 3)
            return std::nullopt; // too short to cut.

        Rng rng(mixSeeds(p.pointSeed, kCkptStream));
        const Cycle cut = 1 + rng.below(full.cycles - 1);
        {
            SystemParams cp = m.sys;
            cp.checkpoint.atCycle = cut;
            cp.checkpoint.path = path;
            cp.checkpoint.stopAfter = true;
            System sys(cp, m.name);
            for (CpuId cpu = 0; cpu < p.numCpus; ++cpu)
                sys.attachTrace(cpu, traces[cpu]);
            const SimResult first = sys.run();
            if (!first.stoppedAtCheckpoint) {
                std::remove(path.c_str());
                return Violation{
                    "ckpt-replay", "ckpt-replay:no-stop",
                    fmt("checkpoint at cycle %llu did not stop the "
                        "run",
                        static_cast<unsigned long long>(cut))};
            }
        }
        System resumed(m.sys, m.name);
        for (CpuId cpu = 0; cpu < p.numCpus; ++cpu)
            resumed.attachTrace(cpu, traces[cpu]);
        ckpt::restoreSystemCheckpoint(resumed, path);
        const SimResult rest = resumed.run();
        const std::string restStats =
            obs::exportStatsJson(resumed.root());
        std::remove(path.c_str());

        const std::string diff = diffSim(full, rest);
        if (!diff.empty()) {
            return Violation{
                "ckpt-replay", "ckpt-replay:result-diverged",
                fmt("restore from cycle %llu diverged: %s",
                    static_cast<unsigned long long>(cut),
                    diff.c_str())};
        }
        if (fullStats != restStats) {
            return Violation{
                "ckpt-replay", "ckpt-replay:stats-diverged",
                fmt("restore from cycle %llu: stats JSON differs "
                    "from the uninterrupted run",
                    static_cast<unsigned long long>(cut))};
        }
    } catch (const std::exception &e) {
        std::remove(path.c_str());
        return panicViolation("ckpt-replay", "checkpointed", e.what());
    }
    return std::nullopt;
}

// --- skipahead-identity -------------------------------------------

/**
 * The cycle kernel's core contract: the fast engine (skip-ahead with
 * quiescence memoization, proven-idle components left unticked and
 * stage gating) is an execution-speed optimization only. Running the
 * same fuzzed machine on it and on the plain per-cycle loop must
 * produce the same SimResult and a byte-identical stats JSON document.
 */
std::optional<Violation>
checkSkipaheadIdentity(const ChaosPoint &p)
{
    const TraceSet traces = p.traces();
    MachineParams m = p.machine();
    m.sys.warmupInstrs = standardWarmup(p.instrs);

    ScopedThrowOnError isolate;
    auto runMode = [&](bool skip, SimResult &res, std::string &stats,
                       std::uint64_t &elided) {
        SystemParams sp = m.sys;
        sp.skipAhead = skip;
        System sys(sp, m.name);
        for (CpuId cpu = 0; cpu < p.numCpus; ++cpu)
            sys.attachTrace(cpu, traces[cpu]);
        res = sys.run();
        stats = obs::exportStatsJson(sys.root());
        elided = res.elidedCycles;
    };

    try {
        SimResult plain, skip;
        std::string plainStats, skipStats;
        std::uint64_t plainElided = 0, skipElided = 0;
        runMode(false, plain, plainStats, plainElided);
        runMode(true, skip, skipStats, skipElided);

        if (plainElided != 0) {
            return Violation{
                "skipahead-identity", "skipahead-identity:plain-elided",
                fmt("plain run reports %llu elided cycles",
                    static_cast<unsigned long long>(plainElided))};
        }
        const std::string diff = diffSim(plain, skip);
        if (!diff.empty()) {
            return Violation{
                "skipahead-identity",
                "skipahead-identity:result-diverged",
                fmt("skip-ahead run (%llu cycles elided) diverged: %s",
                    static_cast<unsigned long long>(skipElided),
                    diff.c_str())};
        }
        if (plainStats != skipStats) {
            return Violation{
                "skipahead-identity",
                "skipahead-identity:stats-diverged",
                fmt("stats JSON differs between plain and skip-ahead "
                    "runs (%llu cycles elided)",
                    static_cast<unsigned long long>(skipElided))};
        }
    } catch (const std::exception &e) {
        return panicViolation("skipahead-identity", "either mode",
                              e.what());
    }
    return std::nullopt;
}

// --- serial-parallel ----------------------------------------------

std::optional<Violation>
checkSerialParallel(const ChaosPoint &p)
{
    const MachineParams base = p.machine();
    const WorkloadProfile prof = p.profile();

    auto build = [&]() {
        exp::Sweep sweep;
        sweep.add(p.label() + "/base", base, prof, p.instrs);
        sweep.add(p.label() + "/l1small", withSmallL1(base), prof,
                  p.instrs);
        sweep.add(p.label() + "/issue2", withIssueWidth(base, 2),
                  prof, p.instrs);
        return sweep;
    };

    exp::SweepOptions serialOpts;
    serialOpts.threads = 1;
    const exp::Sweep serialSweep = build();
    const std::vector<exp::PointResult> serial =
        exp::SweepRunner(serialOpts).run(serialSweep);

    exp::SweepOptions parallelOpts;
    parallelOpts.threads = 3;
    const exp::Sweep parallelSweep = build();
    const std::vector<exp::PointResult> parallel =
        exp::SweepRunner(parallelOpts).run(parallelSweep);

    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (serial[i].ok != parallel[i].ok) {
            return Violation{
                "serial-parallel", "serial-parallel:ok-diverged",
                fmt("point %zu ok flag differs between 1 and 3 "
                    "workers (%s)",
                    i, serial[i].label.c_str())};
        }
        if (!serial[i].ok)
            continue;
        const std::string diff =
            diffSim(serial[i].sim, parallel[i].sim);
        if (!diff.empty()) {
            return Violation{
                "serial-parallel", "serial-parallel:result-diverged",
                fmt("point %zu (%s) differs between 1 and 3 "
                    "workers: %s",
                    i, serial[i].label.c_str(), diff.c_str())};
        }
    }
    return std::nullopt;
}

// --- warmup-band --------------------------------------------------

std::optional<Violation>
checkWarmupBand(const ChaosPoint &p)
{
    const TraceSet traces = p.traces();
    const MachineParams base = p.machine();

    const PointOutcome a =
        runMachine(base, p, traces, standardWarmup(p.instrs));
    if (!a.ok)
        return panicViolation("warmup-band", "1/5-warmup", a.error);
    const PointOutcome b =
        runMachine(base, p, traces, p.instrs / 2);
    if (!b.ok)
        return panicViolation("warmup-band", "1/2-warmup", b.error);
    if (a.sim.ipc <= 0.0 || b.sim.ipc <= 0.0) {
        return Violation{"warmup-band", "warmup-band:zero-ipc",
                         "a warmed-up run measured zero IPC"};
    }

    const double rel = std::fabs(a.sim.ipc - b.sim.ipc) /
        std::max(a.sim.ipc, b.sim.ipc);
    if (rel > kWarmupBandRelTol) {
        return Violation{
            "warmup-band", "warmup-band:out-of-band",
            fmt("measured IPC %.4f (1/5 warm-up) vs %.4f (1/2 "
                "warm-up): %.0f%% apart exceeds the %.0f%% band",
                a.sim.ipc, b.sim.ipc, rel * 100,
                kWarmupBandRelTol * 100)};
    }
    return std::nullopt;
}

// --- golden-agree -------------------------------------------------

std::optional<Violation>
checkGoldenAgree(const ChaosPoint &p)
{
    const TraceSet traces = p.traces();
    const MachineParams base = p.machine();
    const PointOutcome a = runMachine(base, p, traces);
    if (!a.ok)
        return panicViolation("golden-agree", "base", a.error);

    for (CpuId cpu = 0; cpu < p.numCpus; ++cpu) {
        const std::string err =
            checkReplay(*traces[cpu], a.sim, cpu);
        if (!err.empty()) {
            return Violation{
                "golden-agree", "golden-agree:replay",
                fmt("cpu %u replay check failed: %s", cpu,
                    err.c_str())};
        }
    }
    // CPI cross-check only for the unmodified base machine: the
    // golden model is a fixed reference, so deliberately degraded
    // fuzz configurations may legitimately exceed its CPI envelope.
    if (p.activeCount() == 0) {
        const std::string err = checkAgainstGolden(
            *traces[0], a.sim, kGoldenSlack, 0);
        if (!err.empty()) {
            return Violation{"golden-agree",
                             "golden-agree:golden-cpi", err};
        }
    }
    return std::nullopt;
}

} // namespace

const std::vector<Invariant> &
invariantCatalog()
{
    static const std::vector<Invariant> catalog = {
        {"cache-mono",
         "growing the L2 never increases its miss count",
         checkCacheMono},
        {"issue-mono",
         "widening issue never lowers IPC beyond noise",
         checkIssueMono},
        {"ckpt-replay",
         "checkpoint at a random cycle + restore is bit-identical",
         checkCkptReplay},
        {"serial-parallel",
         "1-worker and 3-worker sweeps are bit-identical",
         checkSerialParallel},
        {"warmup-band",
         "longer warm-up keeps measured IPC within the error band",
         checkWarmupBand},
        {"golden-agree",
         "replay and golden-model cross-checks pass",
         checkGoldenAgree},
        {"storm",
         "random fault injections die by the documented contract",
         runFaultStorm},
        {"skipahead-identity",
         "skip-ahead and plain per-cycle scheduling are bit-identical",
         checkSkipaheadIdentity},
    };
    return catalog;
}

std::vector<Invariant>
selectInvariants(const std::string &selection)
{
    const std::vector<Invariant> &catalog = invariantCatalog();
    if (selection.empty() || selection == "all")
        return catalog;

    std::vector<Invariant> picked;
    std::size_t pos = 0;
    while (pos <= selection.size()) {
        std::size_t comma = selection.find(',', pos);
        if (comma == std::string::npos)
            comma = selection.size();
        const std::string name = selection.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        bool found = false;
        for (const Invariant &inv : catalog) {
            if (inv.name == name) {
                picked.push_back(inv);
                found = true;
                break;
            }
        }
        if (!found) {
            std::string known;
            for (const Invariant &inv : catalog)
                known += (known.empty() ? "" : ", ") + inv.name;
            fatal("unknown invariant '%s' (known: %s)", name.c_str(),
                  known.c_str());
        }
    }
    return picked;
}

} // namespace s64v::chaos
