#include "exp/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "check/crash_report.hh"
#include "check/signals.hh"
#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "exp/journal.hh"
#include "model/fingerprint.hh"

namespace s64v::exp
{

SweepPoint &
Sweep::add(std::string label, MachineParams machine,
           WorkloadProfile profile, std::size_t instrs)
{
    points_.push_back({std::move(label), std::move(machine),
                       std::move(profile), instrs});
    return points_.back();
}

unsigned
SweepRunner::effectiveThreads(std::size_t num_points) const
{
    if (num_points == 0)
        return 1;
    unsigned resolved =
        opts_.threads != 0 ? opts_.threads : opts_.run.threads;
    if (resolved == 0)
        resolved = std::max(1u, std::thread::hardware_concurrency());
    return resolved < num_points
        ? resolved
        : static_cast<unsigned>(num_points);
}

MachineParams
SweepRunner::effectiveMachine(const SweepPoint &point) const
{
    MachineParams machine = point.machine;
    machine.sys.warmupInstrs = standardWarmup(point.instrs);
    applyRunOverrides(machine.sys, opts_.run);
    return machine;
}

void
SweepRunner::runPoint(const SweepPoint &point, std::size_t index,
                      const TracePool::TraceSet &traces,
                      const MetricFn &metricFn, PointResult &out) const
{
    out = PointResult{};
    out.label = point.label;

    const MachineParams machine = effectiveMachine(point);

    check::setCrashPoint(point.label, index);
    ScopedThrowOnError isolate;
    try {
        PerfModel model(machine);
        for (CpuId cpu = 0; cpu < machine.sys.numCpus; ++cpu)
            model.loadTrace(cpu, traces[cpu]);
        out.sim = model.prepare().run();
        if (metricFn)
            metricFn(model, out.sim, out.metrics);
        out.ok = true;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
        warn("sweep point '%s' failed: %s", point.label.c_str(),
             e.what());
    }
    check::clearCrashPoint();
}

std::vector<PointResult>
SweepRunner::run(const Sweep &sweep) const
{
    const std::vector<SweepPoint> &points = sweep.points();
    std::vector<PointResult> results(points.size());
    if (points.empty())
        return results;

    const obs::ObsOptions &run = opts_.run;

    // Each point's workload under the run's --seed= policy, the same
    // one PerfModel::loadWorkload applies. All trace synthesis
    // happens here, serially, before any worker starts: N points over
    // one workload share a single immutable trace, and generation
    // order (hence every Rng stream) does not depend on the worker
    // count.
    std::vector<WorkloadProfile> profiles(points.size());
    TracePool pool;
    std::vector<const TracePool::TraceSet *> traceSets(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        profiles[i] = points[i].profile;
        profiles[i].seed =
            obs::effectiveWorkloadSeed(run.seed, profiles[i].seed);
        traceSets[i] = &pool.acquire(profiles[i],
                                     points[i].machine.sys.numCpus,
                                     points[i].instrs);
    }

    // Process-level run machinery, once for the whole sweep; a point
    // installs neither. The crash sink collects every crashed point
    // into one document instead of letting concurrent failures
    // overwrite each other's report; a sweep writes no stats, so
    // there is nothing to salvage.
    check::ScopedCrashReporting crashGuard(run.crashReportPath, "",
                                           run.seed);
    check::ScopedSignalGuard guard;

    const unsigned threads = effectiveThreads(points.size());
    std::atomic<std::size_t> next{0};
    const MetricFn &metricFn = sweep.metricFn();

    // --- Durability: point keys, journal replay, journal rewrites ---
    const bool journalled = !run.journalPath.empty();
    std::vector<std::uint64_t> configHash(points.size(), 0);
    std::vector<std::uint64_t> workloadHash(points.size(), 0);
    if (journalled) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            configHash[i] =
                fingerprintMachine(effectiveMachine(points[i]));
            const std::uint64_t key[2] = {
                fingerprintWorkload(profiles[i]), points[i].instrs};
            workloadHash[i] = ckpt::fnv1a(key, sizeof key);
        }
    }

    // The journal holds every entry already durable, this sweep's and
    // any other sweep's over the same file, in key order. A file that
    // is not a journal leaves the sweep without one.
    std::vector<JournalEntry> journal;
    std::mutex journalMutex;
    bool journalOk = false;
    if (journalled) {
        if (auto read = readJournal(run.journalPath)) {
            journal = std::move(*read);
            journalOk = true;
        }
    }

    // A point is filled in from the entry keyed (i, label) whose
    // hashes still match; an entry with that key and other hashes is
    // stale. Entries keyed to no point here belong to another sweep.
    std::vector<std::uint8_t> prefilled(points.size(), 0);
    if (journalOk && run.resume) {
        std::size_t stale = 0;
        for (const JournalEntry &e : journal) {
            const std::size_t i = e.index;
            if (i >= points.size() || e.label != points[i].label)
                continue;
            if (e.configHash != configHash[i] ||
                e.workloadHash != workloadHash[i]) {
                ++stale;
                continue;
            }
            results[i].label = e.label;
            results[i].sim = e.sim;
            results[i].metrics = e.metrics;
            results[i].ok = true;
            prefilled[i] = 1;
        }
        if (stale != 0) {
            warn("journal '%s': ignored %zu entries whose config/"
                 "workload keys no longer match",
                 run.journalPath.c_str(), stale);
        }
        std::size_t done = 0;
        for (const std::uint8_t p : prefilled)
            done += p;
        inform("resume: %zu of %zu points already complete in '%s'",
               done, points.size(), run.journalPath.c_str());
    }

    // Replace or add point i's entry, then rewrite the whole file.
    auto journalPoint = [&](std::size_t i) {
        JournalEntry e{i, points[i].label, configHash[i],
                       workloadHash[i], results[i].sim,
                       results[i].metrics};
        std::lock_guard<std::mutex> lock(journalMutex);
        if (!journalOk)
            return;
        const auto at = std::lower_bound(journal.begin(), journal.end(),
                                         e, journalKeyLess);
        if (at != journal.end() && !journalKeyLess(e, *at))
            *at = std::move(e);
        else
            journal.insert(at, std::move(e));
        std::string err;
        if (!writeJournal(run.journalPath, journal, &err)) {
            warn("cannot write run journal '%s': %s; sweep continues "
                 "without durability",
                 run.journalPath.c_str(), err.c_str());
            journalOk = false;
        }
    };

    // Progress counters for progressFn. The callback runs under the
    // lock, so calls arrive one at a time with `done` counting up.
    std::mutex progressMutex;
    std::size_t done = 0;
    std::uint64_t instrsRun = 0;
    const auto start = std::chrono::steady_clock::now();
    auto pointDone = [&](const PointResult &r, bool executed) {
        if (!opts_.progressFn)
            return;
        std::lock_guard<std::mutex> lock(progressMutex);
        ++done;
        if (executed && r.ok)
            instrsRun += r.sim.instructions;
        const double seconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();
        const double kips = seconds > 0.0
            ? static_cast<double>(instrsRun) / seconds / 1000.0
            : 0.0;
        opts_.progressFn(done, points.size(), kips);
    };

    auto workerLoop = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size())
                break;
            if (prefilled[i]) {
                pointDone(results[i], /*executed=*/false);
                continue;
            }
            if (check::stopRequested()) {
                results[i].label = points[i].label;
                results[i].error = "interrupted";
                pointDone(results[i], false);
                continue;
            }
            runPoint(points[i], i, *traceSets[i], metricFn, results[i]);
            // A stop request cuts a running point at the next cycle
            // boundary: its partial result is reported but must never
            // become durable — resume re-runs the point in full
            // instead of merging a truncated run. A failed point is
            // not journalled either, so resume runs it again.
            if (journalled && results[i].ok &&
                !results[i].sim.interrupted)
                journalPoint(i);
            pointDone(results[i], true);
        }
    };

    if (threads <= 1) {
        workerLoop();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back(workerLoop);
        for (std::thread &w : workers)
            w.join();
    }

    return results;
}

} // namespace s64v::exp
