/**
 * @file
 * The benchmark's workloads and output checks. README.md says why each
 * workload is in the set.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "ckpt/snapshot.hh"
#include "common/random.hh"
#include "obs/stats_export.hh"
#include "simbench.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace simbench
{

using namespace s64v;

namespace
{

constexpr WorkloadSpec kWorkloads[] = {
    {"tpcc_up", "TPC-C", 1, 2'000'000},
    {"specint_up", "SPECint2000", 1, 2'000'000},
    {"tpcc_smp4", "TPC-C", 4, 500'000},
    {"fig_sweep", nullptr, 1, 300'000},
    // Not a benchmark workload: a real model defect the tests use to
    // prove failures are counted. With seed 0 (the preset seed) this
    // panics with "inclusion broken" on both engines; at 100 k
    // records per CPU it passes.
    {"tpcc_smp16_repro", "TPC-C", 16, 120'000},
};

/** A machine variant of the figure sweep. */
struct Variant
{
    const char *label;
    MachineParams (*build)();
};

// The off-chip 8 MB direct-mapped L2 of Fig. 14 is left out: it trips
// the model's "inclusion broken" panic at some seeds (SPECfp95 with
// seed 1001), and a benchmark workload must not fail.
const Variant kVariants[] = {
    {"base", [] { return sparc64vBase(); }},
    {"issue2", [] { return withIssueWidth(sparc64vBase(), 2); }},
    {"bht4k", [] { return withSmallBht(sparc64vBase()); }},
    {"l1-32k1w", [] { return withSmallL1(sparc64vBase()); }},
    {"l2-8m2w", [] { return withOffChipL2(sparc64vBase(), 2); }},
    {"prefetch-off", [] { return withPrefetch(sparc64vBase(), false); }},
    {"rs-unified", [] { return withUnifiedRs(sparc64vBase(), true); }},
};

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::string
workloadList()
{
    std::string out;
    for (const WorkloadSpec &w : kWorkloads)
        out += (out.empty() ? "" : ", ") + std::string(w.name);
    return out;
}

WorkloadProfile
seededProfile(const std::string &preset, std::uint64_t seed)
{
    WorkloadProfile p = workloadByName(preset);
    if (seed != 0)
        p.seed = mixSeeds(seed, p.seed);
    return p;
}

MachineParams
runMachine(MachineParams m, Engine e, std::size_t instrs)
{
    if (e == Engine::Plain) {
        m.sys.skipAhead = false;
        m.sys.flatDispatch = false;
        m.sys.memoQuiescence = false;
    }
    m.sys.warmupInstrs = instrs / 5;
    return m;
}

exp::TracePool::TraceSet
synthesize(const WorkloadProfile &profile, unsigned cpus,
           std::size_t instrs)
{
    TraceGenerator gen(profile, cpus);
    exp::TracePool::TraceSet set;
    for (CpuId cpu = 0; cpu < cpus; ++cpu) {
        set.push_back(std::make_shared<const InstrTrace>(
            gen.generate(instrs, cpu)));
    }
    return set;
}

std::uint64_t
recordCount(const exp::TracePool::TraceSet &traces)
{
    std::uint64_t n = 0;
    for (const auto &t : traces)
        n += t->size();
    return n;
}

unsigned
workerThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : (hw < 4 ? hw : 4);
}

exp::Sweep
figureSweep(std::uint64_t seed, std::size_t instrs, Engine e)
{
    exp::Sweep sweep;
    for (const std::string &preset : workloadNames()) {
        const WorkloadProfile profile = seededProfile(preset, seed);
        for (const Variant &v : kVariants) {
            // The runner applies the standard warm-up itself.
            sweep.add(preset + "/" + v.label,
                      runMachine(v.build(), e, instrs), profile,
                      instrs);
        }
    }
    sweep.setMetricFn([](PerfModel &model, const SimResult &res,
                         std::map<std::string, double> &metrics) {
        // Two exact 32-bit halves: a double cannot hold all 64 bits.
        const std::uint64_t d = statsDigest(model.system(), res);
        metrics["digest_hi"] = static_cast<double>(d >> 32);
        metrics["digest_lo"] = static_cast<double>(d & 0xffffffffu);
    });
    return sweep;
}

std::uint64_t
pointDigest(const exp::PointResult &point)
{
    const auto hi = point.metrics.find("digest_hi");
    const auto lo = point.metrics.find("digest_lo");
    if (hi == point.metrics.end() || lo == point.metrics.end())
        return 0;
    return (static_cast<std::uint64_t>(hi->second) << 32) |
        static_cast<std::uint64_t>(lo->second);
}

std::vector<std::pair<std::string, MachineParams>>
sweepVariants()
{
    std::vector<std::pair<std::string, MachineParams>> out;
    for (const Variant &v : kVariants)
        out.emplace_back(v.label, v.build());
    return out;
}

std::uint64_t
statsDigest(System &sys, const SimResult &res)
{
    const std::string json = obs::exportStatsJson(sys.root(), &res);
    return ckpt::fnv1a(json.data(), json.size());
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
SingleRun::buildS() const
{
    return std::chrono::duration<double>(runStart - buildStart).count();
}

double
SingleRun::runS() const
{
    return std::chrono::duration<double>(runEnd - runStart).count();
}

SingleRun
runSingle(const MachineParams &machine,
          const exp::TracePool::TraceSet &traces,
          const std::function<void(System &)> &beforeRun)
{
    SingleRun out;
    out.model = std::make_unique<PerfModel>(machine);
    for (CpuId cpu = 0; cpu < traces.size(); ++cpu)
        out.model->loadTrace(cpu, traces[cpu]);
    out.buildStart = Clock::now();
    System &sys = out.model->prepare();
    if (beforeRun)
        beforeRun(sys);
    out.runStart = Clock::now();
    out.res = sys.run();
    out.runEnd = Clock::now();
    requireDrained(out.res, traces);
    out.digest = statsDigest(sys, out.res);
    out.checkEnd = Clock::now();
    return out;
}

void
requireDrained(const SimResult &res,
               const exp::TracePool::TraceSet &traces)
{
    if (res.hitCycleCap)
        throw std::runtime_error("run hit the cycle cap");
    if (res.interrupted)
        throw std::runtime_error("run was interrupted");
    if (res.cores.size() != traces.size())
        throw std::runtime_error("result has the wrong CPU count");
    for (std::size_t cpu = 0; cpu < traces.size(); ++cpu) {
        if (res.cores[cpu].committed != traces[cpu]->size()) {
            throw std::runtime_error(
                "cpu" + std::to_string(cpu) + " committed " +
                std::to_string(res.cores[cpu].committed) + " of " +
                std::to_string(traces[cpu]->size()) + " records");
        }
    }
}

} // namespace simbench
