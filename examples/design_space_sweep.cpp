/**
 * @file
 * Design-space exploration: reproduce the §4 microarchitecture
 * trade-off workflow on a workload of your choice — issue width, BHT
 * geometry, L1 and L2 structures, prefetching, and reservation-
 * station organization, all against the Table-1 baseline.
 *
 * Usage: design_space_sweep [workload=TPC-C] [instrs=60000]
 *                           [--threads=N] [--journal=<path>]
 *                           [--resume=<journal>]
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "analysis/report.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "workload/workloads.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    std::vector<std::string> rest; // what the run flags leave over.
    exp::SweepOptions opts;
    opts.run = obs::parseObsArgs(argc, argv, &rest);
    ConfigMap cfg;
    cfg.parseArgs(rest);
    const std::string wl = cfg.getString("workload", "TPC-C");
    const std::size_t n =
        static_cast<std::size_t>(cfg.getU64("instrs", 60000));
    cfg.rejectUnreadKeys();

    const WorkloadProfile profile = workloadByName(wl);

    struct Variant
    {
        const char *label;
        MachineParams machine;
    };
    const std::vector<Variant> variants = {
        {"base (Table 1)", sparc64vBase()},
        {"2-way issue", withIssueWidth(sparc64vBase(), 2)},
        {"BHT 4k-2w.1t", withSmallBht(sparc64vBase())},
        {"L1 32k-1w.3c", withSmallL1(sparc64vBase())},
        {"L2 off-chip 8M 2-way", withOffChipL2(sparc64vBase(), 2)},
        {"L2 off-chip 8M 1-way", withOffChipL2(sparc64vBase(), 1)},
        {"no prefetch", withPrefetch(sparc64vBase(), false)},
        {"unified RS (1RS)", withUnifiedRs(sparc64vBase(), true)},
        {"perfect bpred", withPerfectBranch(sparc64vBase())},
        {"perfect L2", withPerfectL2(sparc64vBase())},
    };

    printHeader("Design-space sweep on " + wl);

    // One parallel sweep: the workload trace is synthesized once and
    // shared by all machine variants.
    exp::Sweep sweep;
    for (const Variant &v : variants)
        sweep.add(v.label, v.machine, profile, n);
    const std::vector<exp::PointResult> results =
        exp::SweepRunner(opts).run(sweep);
    for (const exp::PointResult &p : results) {
        if (!p.ok)
            fatal("sweep point '%s' failed: %s", p.label.c_str(),
                  p.error.c_str());
    }

    const double base_ipc = results[0].sim.ipc;
    Table t({"variant", "IPC", "vs base", ""});
    for (const exp::PointResult &p : results) {
        t.addRow({p.label, fmtDouble(p.sim.ipc),
                  fmtRatioPercent(p.sim.ipc, base_ipc),
                  fmtBar(p.sim.ipc / (2 * base_ipc), 30)});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
