#include "model/breakdown.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/logging.hh"
#include "exp/sweep.hh"
#include "sim/system.hh"

namespace s64v
{

std::string
Breakdown::toString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "core %5.1f%%  branch %5.1f%%  ibs/tlb %5.1f%%  "
                  "sx %5.1f%%",
                  core * 100, branch * 100, ibsTlb * 100, sx * 100);
    return buf;
}

std::vector<WorkloadBreakdown>
computeBreakdowns(const MachineParams &base,
                  const std::vector<WorkloadProfile> &profiles,
                  std::size_t instrs_per_cpu, const obs::ObsOptions &run)
{
    // The §4.2 differential ladder, from the real machine to an
    // ideal core. The four variants of one workload share a single
    // synthesized trace (none of the perfect-component switches
    // changes the CPU count).
    const MachineParams ladder[4] = {
        base,
        withPerfectL2(base),
        withPerfectTlb(withPerfectL1(withPerfectL2(base))),
        withPerfectBranch(
            withPerfectTlb(withPerfectL1(withPerfectL2(base)))),
    };
    static const char *const kStage[4] = {"real", "perfect-l2",
                                          "perfect-l1", "core"};

    exp::Sweep sweep;
    for (const WorkloadProfile &profile : profiles) {
        for (unsigned s = 0; s < 4; ++s) {
            sweep.add(profile.name + "/" + kStage[s], ladder[s],
                      profile, instrs_per_cpu);
        }
    }
    // Every stage records its stack; only the real machine's is read.
    sweep.setMetricFn([](PerfModel &model, const SimResult &,
                         std::map<std::string, double> &m) {
        const Breakdown b =
            breakdownFromCpiStack(collectCpiStack(model.system()));
        m["core"] = b.core;
        m["branch"] = b.branch;
        m["ibs_tlb"] = b.ibsTlb;
        m["sx"] = b.sx;
    });

    exp::SweepOptions opts;
    opts.run = run;
    const std::vector<exp::PointResult> flat =
        exp::SweepRunner(opts).run(sweep);

    std::vector<WorkloadBreakdown> out(profiles.size());
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        double t[4];
        for (unsigned s = 0; s < 4; ++s) {
            const exp::PointResult &p = flat[w * 4 + s];
            if (!p.ok) {
                fatal("breakdown point '%s' failed: %s",
                      p.label.c_str(), p.error.c_str());
            }
            t[s] = static_cast<double>(p.sim.cycles);
        }
        const std::map<std::string, double> &real = flat[w * 4].metrics;
        out[w].cpiStack = {real.at("core"), real.at("branch"),
                           real.at("ibs_tlb"), real.at("sx")};
        Breakdown &b = out[w].differential;
        if (t[0] <= 0.0)
            continue;
        b.sx = std::max(0.0, t[0] - t[1]) / t[0];
        b.ibsTlb = std::max(0.0, t[1] - t[2]) / t[0];
        b.branch = std::max(0.0, t[2] - t[3]) / t[0];
        b.core = std::max(0.0, 1.0 - b.sx - b.ibsTlb - b.branch);
    }
    return out;
}

Breakdown
computeBreakdown(const MachineParams &base,
                 const WorkloadProfile &profile,
                 std::size_t instrs_per_cpu, const obs::ObsOptions &run)
{
    return computeBreakdowns(base, {profile}, instrs_per_cpu, run)[0]
        .differential;
}

Breakdown
breakdownFromCpiStack(const obs::CpiStackCounts &counts)
{
    using obs::CommitSlot;
    Breakdown b;
    if (counts.total() == 0)
        return b;
    b.branch = counts.fraction(CommitSlot::BranchSquash);
    b.ibsTlb = counts.fraction(CommitSlot::L1IMiss) +
        counts.fraction(CommitSlot::L1DMiss) +
        counts.fraction(CommitSlot::TlbMiss);
    b.sx = counts.fraction(CommitSlot::L2Miss);
    b.core = std::max(0.0, 1.0 - b.branch - b.ibsTlb - b.sx);
    return b;
}

obs::CpiStackCounts
collectCpiStack(System &sys)
{
    obs::CpiStackCounts total;
    for (CpuId cpu = 0; cpu < sys.params().numCpus; ++cpu)
        total += sys.core(cpu).cpiStack().counts();
    return total;
}

} // namespace s64v
