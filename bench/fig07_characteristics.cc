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
 * With --cpi-stack, a second table reports the same categories from
 * the single-pass commit-slot accounting (obs::CpiStack) — one run
 * per workload instead of four — alongside the largest per-category
 * disagreement with the differential ladder.
 */

#include <cmath>
#include <cstdio>
#include <cstring>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "exp/sweep.hh"
#include "model/breakdown.hh"
#include "obs/run_obs.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    const obs::ObsOptions run = obs::parseObsArgs(argc, argv);
    bool cpi_stack = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--cpi-stack") ||
            !std::strcmp(argv[i], "cpi-stack"))
            cpi_stack = true;
    }
    printHeader("Figure 7. Benchmark characteristics "
                "(execution-time breakdown)");

    // One parallel sweep: 4 differential runs per workload, every
    // workload's trace synthesized once.
    std::vector<WorkloadProfile> profiles;
    for (const std::string &wl : workloadNames())
        profiles.push_back(workloadByName(wl));
    const std::vector<Breakdown> breakdowns =
        computeBreakdowns(sparc64vBase(), profiles, upRunLength(), run);

    Table t({"workload", "core", "branch", "ibs/tlb", "sx"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Breakdown &b = breakdowns[i];
        t.addRow({profiles[i].name, fmtPercent(b.core),
                  fmtPercent(b.branch), fmtPercent(b.ibsTlb),
                  fmtPercent(b.sx)});
    }
    std::fputs(t.render().c_str(), stdout);

    std::puts("\npaper reference: SPECint95 branch ~30%, SPECfp95 "
              "core ~74%, TPC-C sx ~35%");

    if (cpi_stack) {
        // Single-pass alternative: one run per workload, categories
        // read from the commit-slot stack the cores accumulated.
        exp::Sweep sweep;
        for (const WorkloadProfile &p : profiles)
            sweep.add(p.name + "/cpi-stack", sparc64vBase(), p,
                      upRunLength());
        sweep.setMetricFn([](PerfModel &model, const SimResult &,
                             std::map<std::string, double> &m) {
            const Breakdown b = breakdownFromCpiStack(
                collectCpiStack(model.system()));
            m["core"] = b.core;
            m["branch"] = b.branch;
            m["ibs_tlb"] = b.ibsTlb;
            m["sx"] = b.sx;
        });
        exp::SweepOptions opts;
        opts.run = run;
        const std::vector<exp::PointResult> points =
            exp::SweepRunner(opts).run(sweep);

        printHeader("Single-pass CPI stack (commit-slot accounting, "
                    "1 run/workload)");
        Table s({"workload", "core", "branch", "ibs/tlb", "sx",
                 "max|d| vs diff"});
        double worst = 0.0;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            const std::map<std::string, double> &m =
                points[i].metrics;
            if (!points[i].ok) {
                s.addRow({profiles[i].name, "failed", "-", "-", "-",
                          "-"});
                continue;
            }
            const Breakdown &d = breakdowns[i];
            const double delta = std::max(
                {std::fabs(m.at("core") - d.core),
                 std::fabs(m.at("branch") - d.branch),
                 std::fabs(m.at("ibs_tlb") - d.ibsTlb),
                 std::fabs(m.at("sx") - d.sx)});
            worst = std::max(worst, delta);
            s.addRow({profiles[i].name, fmtPercent(m.at("core")),
                      fmtPercent(m.at("branch")),
                      fmtPercent(m.at("ibs_tlb")),
                      fmtPercent(m.at("sx")), fmtPercent(delta)});
        }
        std::fputs(s.render().c_str(), stdout);
        std::printf("\nworst per-category disagreement with the "
                    "differential ladder: %.1f%%\n", worst * 100);
    }
    return 0;
}
