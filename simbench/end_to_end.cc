/**
 * @file
 * The end-to-end run: repeats the workload's fixed amount of simulated
 * work until the time budget is spent and reports medians. No tracing
 * is attached; the traced run is a separate process.
 */

#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "simbench.hh"
#include "workload/workloads.hh"

namespace simbench
{

using namespace s64v;

namespace
{

/** "name: v1 v2 ..." with the values of every repetition. */
std::string
repetitions(const char *name, const std::vector<double> &v)
{
    std::string out = std::string("  per repetition ") + name + ":";
    char buf[32];
    for (const double x : v) {
        std::snprintf(buf, sizeof buf, " %.4g", x);
        out += buf;
    }
    return out;
}

/**
 * Output check on a shortened input: the fast engine's stats digest
 * must equal the plain reference loop's. Counts as one run.
 */
void
checkAgainstPlain(const WorkloadSpec &w, const WorkloadProfile &profile,
                  Report &r)
{
    const std::size_t n = w.instrsPerCpu / 10;
    ++r.attempted;
    try {
        const exp::TracePool::TraceSet traces =
            synthesize(profile, w.cpus, n);
        const MachineParams base = sparc64vBase(w.cpus);
        const SingleRun fast =
            runSingle(runMachine(base, Engine::Fast, n), traces);
        const SingleRun plain =
            runSingle(runMachine(base, Engine::Plain, n), traces);
        if (fast.digest != plain.digest) {
            throw std::runtime_error(
                "fast engine and plain loop disagree on the shortened "
                "input");
        }
        r.lines.push_back("reference check: " + std::to_string(n) +
                          " records/cpu, fast == plain, digest " +
                          hex(plain.digest));
    } catch (const std::exception &e) {
        r.fail(std::string("reference check: ") + e.what());
    }
}

/** The same check for every point of the sweep, one run per point. */
void
checkSweepAgainstPlain(const WorkloadSpec &w, const Options &o,
                       Report &r)
{
    const std::size_t n = w.instrsPerCpu / 10;
    exp::SweepOptions so;
    so.threads = workerThreads();
    const std::vector<exp::PointResult> fast =
        exp::SweepRunner(so).run(figureSweep(o.seed, n, Engine::Fast));
    const std::vector<exp::PointResult> plain =
        exp::SweepRunner(so).run(figureSweep(o.seed, n, Engine::Plain));
    for (std::size_t i = 0; i < fast.size(); ++i) {
        ++r.attempted;
        if (!fast[i].ok || !plain[i].ok) {
            r.fail("reference check " + fast[i].label + ": " +
                   (fast[i].ok ? plain[i].error : fast[i].error));
        } else if (pointDigest(fast[i]) != pointDigest(plain[i])) {
            r.fail("reference check " + fast[i].label +
                   ": fast engine and plain loop disagree");
        }
    }
    r.lines.push_back("reference check: " + std::to_string(fast.size()) +
                      " points at " + std::to_string(n) +
                      " records, fast == plain");
}

void
singleRunWorkload(const WorkloadSpec &w, const Options &o, Report &r)
{
    const WorkloadProfile profile = seededProfile(w.preset, o.seed);
    checkAgainstPlain(w, profile, r);

    const MachineParams machine =
        runMachine(sparc64vBase(w.cpus), Engine::Fast, w.instrsPerCpu);
    std::mutex m; // guards everything below it.
    std::vector<double> kips, setup;
    std::optional<std::uint64_t> digest;
    double ipc = 0.0;
    const Clock::time_point start = Clock::now();

    // Every worker repeats set-up (synthesis, build) and simulation
    // until the time budget is spent, each on its own copy of the
    // inputs. Host speed here moves by tens of percent from second to
    // second and from core to core; four cores sampled side by side
    // give a steadier median than one core sampled four times as long.
    // A worker's first repetition warms the process (first touch of
    // the heap) and is checked but not timed.
    const auto worker = [&] {
        setThrowOnError(true); // per thread.
        double last = 0.0;
        for (unsigned rep = 0;
             rep < 2 || secondsSince(start) + last / 2 < o.seconds;
             ++rep) {
            const Clock::time_point t0 = Clock::now();
            try {
                const exp::TracePool::TraceSet traces =
                    synthesize(profile, w.cpus, w.instrsPerCpu);
                const double synth = secondsSince(t0);
                const SingleRun run = runSingle(machine, traces);
                std::lock_guard<std::mutex> lock(m);
                ++r.attempted;
                if (digest && *digest != run.digest) {
                    r.fail("stats digest differs between repetitions");
                } else {
                    digest = run.digest;
                    ipc = run.res.ipc;
                    if (rep > 0) {
                        kips.push_back(
                            static_cast<double>(recordCount(traces)) /
                            run.runS() / 1e3);
                        setup.push_back(synth + run.buildS());
                    }
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(m);
                ++r.attempted;
                r.fail(e.what());
            }
            last = secondsSince(t0);
        }
    };
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < workerThreads(); ++i)
        workers.emplace_back(worker);
    for (std::thread &t : workers)
        t.join();

    char line[160];
    std::snprintf(line, sizeof line,
                  "%s: %zu timed runs on %u threads, sim_ipc %.6f, "
                  "stats digest %s",
                  w.name, kips.size(), workerThreads(), ipc,
                  digest ? hex(*digest).c_str() : "-");
    r.lines.push_back(line);
    r.lines.push_back(repetitions("kips", kips));
    r.lines.push_back(repetitions("setup_s", setup));
    r.add("kips", median(kips), "kips");
    r.add("setup_s", median(setup), "s");
}

void
sweepWorkload(const WorkloadSpec &w, const Options &o, Report &r)
{
    checkSweepAgainstPlain(w, o, r);

    const exp::Sweep sweep =
        figureSweep(o.seed, w.instrsPerCpu, Engine::Fast);
    exp::SweepOptions so;
    so.threads = workerThreads();
    std::vector<double> kips, setup;
    std::vector<std::uint64_t> digests;
    double ipcSum = 0.0;
    const Clock::time_point start = Clock::now();
    double last = 0.0;
    do {
        const Clock::time_point t0 = Clock::now();
        {
            // Set-up: the sweep's five traces through the pool.
            exp::TracePool pool;
            const Clock::time_point s0 = Clock::now();
            for (const std::string &preset : workloadNames()) {
                pool.acquire(seededProfile(preset, o.seed), 1,
                             w.instrsPerCpu);
            }
            setup.push_back(secondsSince(s0));
        }
        const Clock::time_point s1 = Clock::now();
        const std::vector<exp::PointResult> res =
            exp::SweepRunner(so).run(sweep);
        const double wall = secondsSince(s1);

        const bool first = digests.empty();
        std::uint64_t instrs = 0;
        bool allOk = true;
        ipcSum = 0.0;
        for (std::size_t i = 0; i < res.size(); ++i) {
            ++r.attempted;
            const exp::PointResult &p = res[i];
            const std::uint64_t d = pointDigest(p);
            if (first)
                digests.push_back(d);
            std::string err;
            if (!p.ok) {
                err = p.error;
            } else if (p.sim.hitCycleCap || p.sim.interrupted ||
                       p.sim.instructions != w.instrsPerCpu) {
                err = "did not drain";
            } else if (d != digests[i]) {
                err = "stats digest differs between repetitions";
            }
            if (!err.empty()) {
                r.fail(p.label + ": " + err);
                allOk = false;
            }
            instrs += p.sim.instructions;
            ipcSum += p.sim.ipc;
        }
        if (allOk)
            kips.push_back(static_cast<double>(instrs) / wall / 1e3);
        last = secondsSince(t0);
    } while (secondsSince(start) + last / 2 < o.seconds);

    std::uint64_t combined = 0;
    for (const std::uint64_t d : digests)
        combined = combined * 0x100000001b3ull ^ d;
    char line[200];
    std::snprintf(line, sizeof line,
                  "%s: %zu timed sweeps of %zu points on %u threads, "
                  "mean sim_ipc %.6f, stats digest %s",
                  w.name, kips.size(), sweep.size(), so.threads,
                  digests.empty() ? 0.0 : ipcSum / digests.size(),
                  hex(combined).c_str());
    r.lines.push_back(line);
    r.lines.push_back(repetitions("kips", kips));
    r.lines.push_back(repetitions("setup_s", setup));
    r.add("kips", median(kips), "kips");
    r.add("setup_s", median(setup), "s");
}

} // namespace

Report
runEndToEnd(const WorkloadSpec &w, const Options &o)
{
    Report r;
    if (w.preset)
        singleRunWorkload(w, o, r);
    else
        sweepWorkload(w, o, r);
    r.add("peak_rss_mb", peakRssMb(), "MB");
    // error_rate itself is 0 on a healthy build, and a reported metric
    // must never be 0, so the result carries its complement.
    const double errorRate = r.attempted
        ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
        : 1.0;
    r.add("ok_rate", 1.0 - errorRate, "ratio");
    char line[160];
    std::snprintf(line, sizeof line,
                  "error_rate %.6f (%llu failed of %llu attempted runs)",
                  errorRate, static_cast<unsigned long long>(r.failed),
                  static_cast<unsigned long long>(r.attempted));
    r.lines.push_back(line);
    return r;
}

} // namespace simbench
