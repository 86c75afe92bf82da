/**
 * @file
 * Figure 7 — "Benchmark characteristics": execution-time breakdown
 * into core / branch / ibs+tlb / sx components for every paper
 * workload, via the perfect-component differential methodology of
 * §4.2.
 *
 * Paper shape targets: SPECint95 ~30 % branch; SPECfp95 ~74 % core;
 * TPC-C ~35 % sx.
 *
 * A second table reports the same categories from the single-pass
 * commit-slot accounting (obs::CpiStack) of the ladder's own
 * real-machine runs, alongside the largest per-category disagreement
 * with the differential ladder.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "model/breakdown.hh"
#include "obs/run_obs.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    const obs::ObsOptions run = obs::parseObsArgs(argc, argv);
    printHeader("Figure 7. Benchmark characteristics "
                "(execution-time breakdown)");

    // One parallel sweep: 4 differential runs per workload, every
    // workload's trace synthesized once.
    std::vector<WorkloadProfile> profiles;
    for (const std::string &wl : workloadNames())
        profiles.push_back(workloadByName(wl));
    const std::vector<WorkloadBreakdown> breakdowns =
        computeBreakdowns(sparc64vBase(), profiles, upRunLength(), run);

    Table t({"workload", "core", "branch", "ibs/tlb", "sx"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Breakdown &b = breakdowns[i].differential;
        t.addRow({profiles[i].name, fmtPercent(b.core),
                  fmtPercent(b.branch), fmtPercent(b.ibsTlb),
                  fmtPercent(b.sx)});
    }
    std::fputs(t.render().c_str(), stdout);

    std::puts("\npaper reference: SPECint95 branch ~30%, SPECfp95 "
              "core ~74%, TPC-C sx ~35%");

    printHeader("Single-pass CPI stack (commit-slot accounting, "
                "1 run/workload)");
    Table s({"workload", "core", "branch", "ibs/tlb", "sx",
             "max|d| vs diff"});
    double worst = 0.0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Breakdown &c = breakdowns[i].cpiStack;
        const Breakdown &d = breakdowns[i].differential;
        const double delta = std::max(
            {std::fabs(c.core - d.core), std::fabs(c.branch - d.branch),
             std::fabs(c.ibsTlb - d.ibsTlb), std::fabs(c.sx - d.sx)});
        worst = std::max(worst, delta);
        s.addRow({profiles[i].name, fmtPercent(c.core),
                  fmtPercent(c.branch), fmtPercent(c.ibsTlb),
                  fmtPercent(c.sx), fmtPercent(delta)});
    }
    std::fputs(s.render().c_str(), stdout);
    std::printf("\nworst per-category disagreement with the "
                "differential ladder: %.1f%%\n", worst * 100);
    return 0;
}
