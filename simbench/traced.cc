/**
 * @file
 * The traced run: every per-layer metric, each measured from outside
 * the layer through its public functions. The kernel and core layers
 * are timed through a TickProfiler attached with
 * System::attachProfiler; the memory layer by replaying the trace's
 * access stream into a fresh MemSystem; the sweep layer through
 * SweepOptions::progressFn.
 */

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "common/bitutil.hh"
#include "mem/hierarchy.hh"
#include "simbench.hh"
#include "workload/workloads.hh"

namespace simbench
{

using namespace s64v;

namespace
{

/**
 * Kernel-side host time. Counts every visited cycle and times the tick
 * groups and the probe pass on one visited cycle in kSamplePeriod.
 * Samples are chosen by a visit counter, not by cycle number: under
 * skip-ahead, visited cycle numbers alias with any fixed modulus.
 * Each interval the kernel times also holds one clock read, which is
 * measured up front and taken off again.
 */
class LayerProfiler final : public TickProfiler
{
  public:
    /** Prime, so it does not beat with power-of-two model periods. */
    static constexpr std::uint64_t kSamplePeriod = 7;

    LayerProfiler() : clockNs_(clockReadNs()) {}

    /** Watch @p sys's cores; call before each run. */
    void
    bind(System &sys)
    {
        cores_.clear();
        for (CpuId cpu = 0; cpu < sys.params().numCpus; ++cpu)
            cores_.push_back(&sys.core(cpu));
        lastStamp_ = stampSum();
        pendingVisit_ = false;
    }

    /** Settle the last visit of a run; call after each run. */
    void
    finish()
    {
        settleVisit();
        cores_.clear();
    }

    bool
    sampleCycle(Cycle) override
    {
        settleVisit();
        pendingVisit_ = true;
        ++visited_;
        for (const Core *c : cores_)
            ticks_ += c->done() ? 0 : 1;
        if (++sinceSample_ < kSamplePeriod)
            return false;
        sinceSample_ = 0;
        ++sampled_;
        return true;
    }

    void recordTick(const Clocked &, std::uint64_t ns) override
    {
        tickNs_ += net(ns);
    }

    // Declared without `override`: it overrides the group-dispatch
    // hook while the kernel has one, and stays harmless without it.
    void recordGroupTicks(const char *, std::uint64_t, std::uint64_t ns)
    {
        tickNs_ += net(ns);
    }

    void recordProbes(std::uint64_t ns) override { probeNs_ += net(ns); }
    void recordElided(std::uint64_t cycles) override
    {
        elided_ += cycles;
    }

    std::uint64_t visited() const { return visited_; }
    std::uint64_t useful() const { return useful_; }
    std::uint64_t elided() const { return elided_; }
    std::uint64_t ticks() const { return ticks_; }

    /** Estimated host seconds in core ticks over every visit. */
    double tickSeconds() const { return scaled(tickNs_); }
    /** Estimated host seconds in probe passes over every visit. */
    double probeSeconds() const { return scaled(probeNs_); }

  private:
    /** Median cost of one steady_clock read, in ns. */
    static double
    clockReadNs()
    {
        std::vector<double> per;
        for (int round = 0; round < 9; ++round) {
            constexpr int kReads = 4096;
            const Clock::time_point t0 = Clock::now();
            for (int i = 0; i < kReads; ++i)
                (void)Clock::now();
            per.push_back(std::chrono::duration<double, std::nano>(
                              Clock::now() - t0)
                              .count() /
                          kReads);
        }
        return median(per);
    }

    double
    net(std::uint64_t ns) const
    {
        const double d = static_cast<double>(ns) - clockNs_;
        return d > 0.0 ? d : 0.0;
    }

    std::uint64_t
    stampSum() const
    {
        std::uint64_t sum = 0;
        for (const Core *c : cores_)
            sum += c->activityStamp();
        return sum;
    }

    /** Was the previous visit useful (did some core's stamp move)? */
    void
    settleVisit()
    {
        const std::uint64_t stamp = stampSum();
        if (pendingVisit_ && stamp != lastStamp_)
            ++useful_;
        lastStamp_ = stamp;
        pendingVisit_ = false;
    }

    double
    scaled(double ns) const
    {
        if (sampled_ == 0)
            return 0.0;
        return ns * 1e-9 * static_cast<double>(visited_) /
            static_cast<double>(sampled_);
    }

    double clockNs_;
    std::vector<const Core *> cores_;
    std::uint64_t lastStamp_ = 0;
    bool pendingVisit_ = false;
    std::uint64_t visited_ = 0;
    std::uint64_t useful_ = 0;
    std::uint64_t ticks_ = 0;
    std::uint64_t elided_ = 0;
    std::uint64_t sinceSample_ = 0;
    std::uint64_t sampled_ = 0;
    double tickNs_ = 0.0;
    double probeNs_ = 0.0;
};

/** Sums every "snoops" counter of every "coherence" group. */
class SnoopCounter : public stats::Visitor
{
  public:
    void
    visitScalar(const stats::Group &g, const std::string &name,
                const std::string &, const stats::Scalar &s) override
    {
        if (name == "snoops" && g.localName() == "coherence")
            total += s.value();
    }

    std::uint64_t total = 0;
};

/** Simulated memory-system behaviour of one measured window. */
struct MemCounters
{
    std::uint64_t l2DemandAccesses = 0;
    std::uint64_t l2DemandMisses = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t snoops = 0;
    std::uint64_t measured = 0;

    void
    add(System &sys, const SimResult &res)
    {
        MemSystem &mem = sys.mem();
        for (CpuId cpu = 0; cpu < mem.numCpus(); ++cpu) {
            l2DemandAccesses += mem.l2(cpu).demandAccessCount();
            l2DemandMisses += mem.l2(cpu).demandMissCount();
        }
        busTransactions += mem.bus().transactions();
        SnoopCounter sc;
        sys.root().visit(sc);
        snoops += sc.total;
        measured += res.measured;
    }

    void
    report(Report &r) const
    {
        const double kinstr = static_cast<double>(measured) / 1e3;
        r.add("mem.l2_demand_miss_ratio",
              l2DemandAccesses ? static_cast<double>(l2DemandMisses) /
                      static_cast<double>(l2DemandAccesses)
                               : 0.0,
              "ratio");
        r.add("mem.bus_transactions_per_kinstr",
              static_cast<double>(busTransactions) / kinstr, "1/kinstr");
        r.add("mem.snoops_per_kinstr",
              static_cast<double>(snoops) / kinstr, "1/kinstr");
    }
};

/** Per-CPU simulated cycles per record of a finished run. */
std::vector<double>
simulatedCpi(const SimResult &res)
{
    std::vector<double> cpi;
    for (const CoreResult &c : res.cores) {
        cpi.push_back(c.committed ? static_cast<double>(c.lastCommitCycle) /
                                        static_cast<double>(c.committed)
                                  : 1.0);
    }
    return cpi;
}

/** Host cost of the memory layer alone. */
struct Replay
{
    std::uint64_t accesses = 0;
    double seconds = 0.0;
};

/**
 * Replay the fetch-group, load and store stream of @p traces into a
 * fresh MemSystem of @p machine, issuing record i of CPU c at cycle
 * i * cpi[c] and the CPUs in cycle order. The pacing matters: how
 * many fills are in flight at once sets the cost of an access.
 */
void
replayMemory(const MachineParams &machine,
             const exp::TracePool::TraceSet &traces,
             const std::vector<double> &cpi, Replay &out)
{
    stats::Group root("replay");
    const unsigned cpus = static_cast<unsigned>(traces.size());
    MemSystem mem(machine.sys.mem, cpus, &root);
    const unsigned fetchBytes = machine.sys.core.fetchBytes;

    // The fetch unit starts a new group (one L1I access) at a new
    // fetch block, a control-flow discontinuity, or after a branch.
    struct Cursor
    {
        std::size_t next = 0;
        Addr block = 0;
        Addr pc = 0;
        bool afterBranch = true;
    };
    std::vector<Cursor> cur(cpus);
    const Clock::time_point t0 = Clock::now();
    std::uint64_t n = 0;
    for (;;) {
        CpuId cpu = 0;
        Cycle cycle = kCycleNever;
        for (CpuId c = 0; c < cpus; ++c) {
            if (cur[c].next >= traces[c]->size())
                continue;
            const Cycle at = static_cast<Cycle>(
                static_cast<double>(cur[c].next) * cpi[c]);
            if (at < cycle) {
                cycle = at;
                cpu = c;
            }
        }
        if (cycle == kCycleNever)
            break;
        Cursor &k = cur[cpu];
        const TraceRecord &rec = (*traces[cpu])[k.next++];
        const Addr block = alignDown(rec.pc, fetchBytes);
        if (k.afterBranch || block != k.block || rec.pc != k.pc + 4) {
            mem.fetch(cpu, block, cycle);
            ++n;
        }
        k.block = block;
        k.pc = rec.pc;
        k.afterBranch = rec.isBranch();
        if (rec.isLoad()) {
            mem.data(cpu, rec.ea, false, cycle);
            ++n;
        }
        if (rec.isStore()) {
            mem.data(cpu, rec.ea, true, cycle);
            ++n;
        }
    }
    out.seconds += secondsSince(t0);
    out.accesses += n;
}

/**
 * Kernel, core and probe metrics from the profiler, per pass: @p runS
 * and the profiler's totals cover @p passes identical traced passes.
 */
void
reportKernel(const LayerProfiler &prof, std::size_t passes, double runS,
             Report &r)
{
    const double n = static_cast<double>(passes);
    const double visited = static_cast<double>(prof.visited()) / n;
    const double elided = static_cast<double>(prof.elided()) / n;
    const double ticks = static_cast<double>(prof.ticks()) / n;
    const double tickS = prof.tickSeconds() / n;
    const double probeS = prof.probeSeconds() / n;
    runS /= n;
    const double kernelS = runS - tickS - probeS;
    r.add("sim.run_s", runS, "s");
    r.add("sim.visited_cycles", visited, "count");
    r.add("sim.elided_share", elided / (visited + elided), "ratio");
    r.add("sim.useful_visit_share",
          static_cast<double>(prof.useful()) /
              static_cast<double>(prof.visited()),
          "ratio");
    r.add("sim.kernel_s", kernelS, "s");
    r.add("sim.kernel_ns_per_visit", kernelS * 1e9 / visited, "ns");
    r.add("cpu.ticks", ticks, "count");
    r.add("cpu.tick_s", tickS, "s");
    r.add("cpu.ns_per_tick", tickS * 1e9 / ticks, "ns");
    r.add("cpu.tick_share", tickS / runS, "ratio");
    r.add("probes.s", probeS, "s");
    r.add("probes.ns_per_visit", probeS * 1e9 / visited, "ns");
}

/** Spans of @p run: one named @p name, with build, run and check. */
void
recordRun(SpanLog &spans, const std::string &name, std::size_t parent,
          const SingleRun &run)
{
    const std::size_t id =
        spans.add(name, "model", parent, run.buildStart, run.checkEnd);
    spans.add("build", "model", id, run.buildStart, run.runStart);
    spans.add("run", "sim", id, run.runStart, run.runEnd);
    spans.add("check", "check", id, run.runEnd, run.checkEnd);
}

void
reportWorkloadLayer(std::uint64_t records, double synthS, Report &r)
{
    r.add("workload.synth_s", synthS, "s");
    r.add("workload.mrec_per_s",
          static_cast<double>(records) / synthS / 1e6, "Mrec/s");
    r.add("workload.trace_mb",
          static_cast<double>(records * sizeof(TraceRecord)) /
              (1024.0 * 1024.0),
          "MB");
}

void
reportReplay(const Replay &rp, Report &r)
{
    r.add("mem.replay_accesses", static_cast<double>(rp.accesses),
          "count");
    r.add("mem.replay_ns_per_access",
          rp.seconds * 1e9 / static_cast<double>(rp.accesses), "ns");
}

/**
 * The traced run of a single-run workload. Each round runs the fast
 * engine untraced, then traced, then the plain loop, all on one trace
 * set; every run must produce the same stats digest.
 */
void
tracedSingle(const WorkloadSpec &w, const Options &o, Report &r,
             SpanLog &spans)
{
    const std::size_t root = spans.begin(w.name, "benchmark");
    const WorkloadProfile profile = seededProfile(w.preset, o.seed);
    const MachineParams base = sparc64vBase(w.cpus);
    const MachineParams fast =
        runMachine(base, Engine::Fast, w.instrsPerCpu);
    const MachineParams plain =
        runMachine(base, Engine::Plain, w.instrsPerCpu);

    const std::size_t synthSpan = spans.begin("synthesis", "workload",
                                              root);
    const Clock::time_point s0 = Clock::now();
    const exp::TracePool::TraceSet traces =
        synthesize(profile, w.cpus, w.instrsPerCpu);
    const double synthS = secondsSince(s0);
    spans.end(synthSpan);
    const std::uint64_t records = recordCount(traces);

    LayerProfiler prof;
    std::vector<double> fastS, tracedS, plainS, buildS;
    MemCounters memc;
    std::vector<double> cpi;
    std::uint64_t digest = 0;
    double ipc = 0.0;

    const auto checkDigest = [&](const SingleRun &run, const char *what) {
        if (run.digest != digest) {
            throw std::runtime_error(std::string(what) +
                                     ": stats digest differs from the "
                                     "untraced fast run");
        }
    };

    // One untimed run first: the process's first model pays the first
    // touch of its heap, which would tilt the first round's ratios.
    ++r.attempted;
    try {
        recordRun(spans, "warm-up", root, runSingle(fast, traces));
    } catch (const std::exception &e) {
        r.fail(e.what());
    }

    const Clock::time_point start = Clock::now();
    double last = 0.0;
    do {
        const Clock::time_point t0 = Clock::now();
        try {
            {
                ++r.attempted;
                const SingleRun run = runSingle(fast, traces);
                recordRun(spans, "fast", root, run);
                if (fastS.empty()) {
                    digest = run.digest;
                    ipc = run.res.ipc;
                    memc.add(run.model->system(), run.res);
                    cpi = simulatedCpi(run.res);
                }
                checkDigest(run, "fast");
                fastS.push_back(run.runS());
                buildS.push_back(run.buildS());
            }
            {
                ++r.attempted;
                const SingleRun run =
                    runSingle(fast, traces, [&](System &sys) {
                        prof.bind(sys);
                        sys.attachProfiler(&prof);
                    });
                prof.finish();
                recordRun(spans, "fast_traced", root, run);
                checkDigest(run, "traced");
                tracedS.push_back(run.runS());
            }
            {
                ++r.attempted;
                const SingleRun run = runSingle(plain, traces);
                recordRun(spans, "plain", root, run);
                checkDigest(run, "plain loop");
                plainS.push_back(run.runS());
            }
        } catch (const std::exception &e) {
            r.fail(e.what());
            break;
        }
        last = secondsSince(t0);
    } while (secondsSince(start) + last / 2 < o.seconds);

    Replay rp;
    if (!cpi.empty()) {
        const std::size_t id = spans.begin("replay", "mem", root);
        replayMemory(fast, traces, cpi, rp);
        spans.end(id);
    }
    spans.end(root);

    r.lines.push_back(std::string(w.name) + ": sim_ipc " +
                      std::to_string(ipc) + ", stats digest " +
                      hex(digest) + " (fast, traced and plain agree)");
    reportWorkloadLayer(records, synthS, r);
    r.add("model.build_s", median(buildS), "s");
    reportKernel(prof, std::max<std::size_t>(tracedS.size(), 1),
                 std::accumulate(tracedS.begin(), tracedS.end(), 0.0), r);
    // Ratios are taken within a round, where the runs sit side by side
    // in time, so a drift in host speed between rounds cancels.
    std::vector<double> speedup, overhead;
    for (std::size_t i = 0; i < plainS.size(); ++i) {
        speedup.push_back(plainS[i] / fastS[i]);
        overhead.push_back(tracedS[i] / fastS[i] - 1.0);
    }
    r.add("sim.speedup_vs_plain", median(speedup), "x");
    reportReplay(rp, r);
    memc.report(r);
    // A single run is a sweep of one point on one worker.
    const double point = median(buildS) + median(fastS);
    r.add("exp.points", 1, "count");
    r.add("exp.trace_sets", 1, "count");
    r.add("exp.first_point_s", synthS + point, "s");
    r.add("exp.tail_s", 0.0, "s");
    r.add("exp.point_s_p50", point, "s");
    r.add("exp.point_s_p75", point, "s");
    r.add("exp.parallel_speedup", 1.0, "x");
    r.add("trace.overhead", median(overhead), "ratio");
}

/** Completion times of a sweep's points, from SweepOptions::progressFn. */
struct SweepTiming
{
    double wall = 0.0;
    std::vector<double> done; ///< seconds after run() was entered.
    std::vector<exp::PointResult> results;
};

SweepTiming
timedSweep(const exp::Sweep &sweep, unsigned threads)
{
    SweepTiming t;
    std::mutex m;
    exp::SweepOptions so;
    so.threads = threads;
    const Clock::time_point start = Clock::now();
    so.progressFn = [&](std::size_t, std::size_t, double) {
        const double at = secondsSince(start);
        std::lock_guard<std::mutex> lock(m);
        t.done.push_back(at);
    };
    t.results = exp::SweepRunner(so).run(sweep);
    t.wall = secondsSince(start);
    std::sort(t.done.begin(), t.done.end());
    return t;
}

/**
 * The traced run of the figure sweep: the pool's synthesis, one
 * parallel and one serial pass through SweepRunner (completion times
 * from progressFn), then every point again by hand with the profiler
 * attached, and the five base points on the plain loop.
 */
void
tracedSweep(const WorkloadSpec &w, const Options &o, Report &r,
            SpanLog &spans)
{
    const std::size_t root = spans.begin(w.name, "benchmark");
    const exp::Sweep sweep =
        figureSweep(o.seed, w.instrsPerCpu, Engine::Fast);
    const std::vector<std::string> presets = workloadNames();

    exp::TracePool pool;
    std::size_t id = spans.begin("synthesis", "workload", root);
    const Clock::time_point t0 = Clock::now();
    for (const std::string &preset : presets)
        pool.acquire(seededProfile(preset, o.seed), 1, w.instrsPerCpu);
    const double synthS = secondsSince(t0);
    spans.end(id);
    reportWorkloadLayer(presets.size() * w.instrsPerCpu, synthS, r);

    const auto requireOk = [&](const SweepTiming &t, const char *pass) {
        for (const exp::PointResult &p : t.results) {
            ++r.attempted;
            if (!p.ok)
                r.fail(std::string(pass) + " " + p.label + ": " + p.error);
        }
    };

    const unsigned threads = workerThreads();
    id = spans.begin("sweep_parallel", "exp", root);
    const SweepTiming par = timedSweep(sweep, threads);
    spans.end(id);
    requireOk(par, "parallel");
    id = spans.begin("sweep_serial", "exp", root);
    const SweepTiming ser = timedSweep(sweep, 1);
    spans.end(id);
    requireOk(ser, "serial");

    // Serial per-point times: gaps between consecutive completions.
    // The first gap would include the runner's synthesis, so it is
    // left out.
    std::vector<double> pointS;
    for (std::size_t i = 1; i < ser.done.size(); ++i)
        pointS.push_back(ser.done[i] - ser.done[i - 1]);
    // The tail: from the first worker running out of points to the
    // last completion.
    const std::size_t n = par.done.size();
    const double tail = n > threads
        ? par.done[n - 1] - par.done[n - threads]
        : 0.0;

    // Every point again, by hand, with the profiler attached.
    LayerProfiler prof;
    double buildS = 0.0, tracedS = 0.0, tracedWall = 0.0;
    id = spans.begin("sweep_traced", "exp", root);
    for (const exp::SweepPoint &p : sweep.points()) {
        ++r.attempted;
        try {
            const exp::TracePool::TraceSet &traces =
                pool.acquire(p.profile, 1, p.instrs);
            const SingleRun run =
                runSingle(p.machine, traces, [&](System &sys) {
                    prof.bind(sys);
                    sys.attachProfiler(&prof);
                });
            prof.finish();
            recordRun(spans, p.label, id, run);
            buildS += run.buildS();
            tracedS += run.runS();
            tracedWall += std::chrono::duration<double>(run.checkEnd -
                                                        run.buildStart)
                              .count();
        } catch (const std::exception &e) {
            r.fail(p.label + ": " + e.what());
        }
    }
    spans.end(id);

    // The five base points: fast against plain, and the memory replay.
    double fastS = 0.0, plainS = 0.0;
    MemCounters memc;
    Replay rp;
    id = spans.begin("base_points", "sim", root);
    for (const std::string &preset : presets) {
        try {
            const exp::TracePool::TraceSet &traces = pool.acquire(
                seededProfile(preset, o.seed), 1, w.instrsPerCpu);
            const MachineParams base = sparc64vBase();
            ++r.attempted;
            const SingleRun fast = runSingle(
                runMachine(base, Engine::Fast, w.instrsPerCpu), traces);
            ++r.attempted;
            const SingleRun plain = runSingle(
                runMachine(base, Engine::Plain, w.instrsPerCpu), traces);
            if (fast.digest != plain.digest) {
                throw std::runtime_error(
                    "fast engine and plain loop disagree");
            }
            fastS += fast.runS();
            plainS += plain.runS();
            memc.add(fast.model->system(), fast.res);
            replayMemory(base, traces, simulatedCpi(fast.res), rp);
        } catch (const std::exception &e) {
            r.fail(preset + " base point: " + e.what());
        }
    }
    spans.end(id);
    spans.end(root);

    double ipcSum = 0.0;
    for (const exp::PointResult &p : par.results)
        ipcSum += p.sim.ipc;
    r.lines.push_back(std::string(w.name) + ": mean sim_ipc " +
                      std::to_string(ipcSum / par.results.size()) +
                      ", parallel " + std::to_string(par.wall) +
                      " s, serial " + std::to_string(ser.wall) + " s");

    r.add("model.build_s", buildS, "s");
    reportKernel(prof, 1, tracedS, r);
    r.add("sim.speedup_vs_plain", plainS / fastS, "x");
    reportReplay(rp, r);
    memc.report(r);
    r.add("exp.points", static_cast<double>(sweep.size()), "count");
    r.add("exp.trace_sets", static_cast<double>(pool.setsSynthesized()),
          "count");
    r.add("exp.first_point_s", par.done.empty() ? 0.0 : par.done.front(),
          "s");
    r.add("exp.tail_s", tail, "s");
    r.add("exp.point_s_p50", quantile(pointS, 0.5), "s");
    r.add("exp.point_s_p75", quantile(pointS, 0.75), "s");
    r.add("exp.parallel_speedup", ser.wall / par.wall, "x");
    // The serial pass also synthesized the five traces first.
    r.add("trace.overhead", tracedWall / (ser.wall - synthS) - 1.0,
          "ratio");
}

} // namespace

Report
runTraced(const WorkloadSpec &w, const Options &o, SpanLog &spans)
{
    Report r;
    if (w.preset)
        tracedSingle(w, o, r, spans);
    else
        tracedSweep(w, o, r, spans);
    return r;
}

} // namespace simbench
