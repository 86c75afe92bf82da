/**
 * @file
 * Figures 14 and 15 — the L2 trade-off, from one sweep over the three
 * L2 designs, on the UP workloads and on the 16-way SMP TPC-C model.
 *
 * Figure 14, "L2 cache: latency vs volume": IPC of the off-chip
 * 8-MB 2-way and 8-MB direct-mapped L2 designs relative to the
 * on-chip 2-MB 4-way design. Paper shape: off.8m-1w loses 14 %
 * (TPC-C UP) and 12.4 % (16P); off.8m-2w gains slightly.
 *
 * Figure 15, "L2 cache miss": demand miss ratios of the three designs.
 */

#include <cstdio>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "obs/run_obs.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    const obs::ObsOptions run = obs::parseObsArgs(argc, argv);
    printHeader("Figure 14. L2 cache --- latency vs volume "
                "(IPC ratio, base = on.2m-4w = 100%)");

    // The UP rows use the long L2 run length; the SMP row uses the
    // standard SMP length (instrs = 0). One sweep covers all of it,
    // with per-row machine builders because the L2 variants must be
    // constructed at each row's CPU count.
    std::vector<GridRow> rows;
    for (const std::string &wl : workloadNames())
        rows.push_back({wl, wl, 1, l2RunLength()});
    rows.push_back({"TPC-C (" + std::to_string(kSmpWidth) + "P)",
                    "TPC-C", kSmpWidth, 0});

    const auto grid = runGrid(
        rows,
        {{"on.2m-4w",
          [](unsigned cpus) { return sparc64vBase(cpus); }},
         {"off.8m-2w",
          [](unsigned cpus) {
              return withOffChipL2(sparc64vBase(cpus), 2);
          }},
         {"off.8m-1w", [](unsigned cpus) {
              return withOffChipL2(sparc64vBase(cpus), 1);
          }}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["l2_miss"] =
                model.system().mem().l2DemandMissRatio();
        });

    Table t({"workload", "on.2m-4w IPC", "off.8m-2w", "off.8m-1w"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double base = grid[r][0].sim.ipc;
        const double o2 = grid[r][1].sim.ipc;
        const double o1 = grid[r][2].sim.ipc;
        t.addRow({rows[r].label, fmtDouble(base),
                  fmtRatioPercent(o2, base),
                  fmtRatioPercent(o1, base)});
    }

    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: off.8m-1w: TPC-C(UP) 86%, "
              "TPC-C(16P) 87.6%; off.8m-2w slightly above 100%");

    printHeader("Figure 15. L2 cache miss ratio (demand)");
    Table miss({"workload", "on.2m-4w", "off.8m-2w", "off.8m-1w"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        miss.addRow({rows[r].label,
                     fmtPercent(grid[r][0].metrics.at("l2_miss"), 2),
                     fmtPercent(grid[r][1].metrics.at("l2_miss"), 2),
                     fmtPercent(grid[r][2].metrics.at("l2_miss"), 2)});
    }
    std::fputs(miss.render().c_str(), stdout);
    std::puts("\npaper reference: 8m-2w clearly below 2m-4w on "
              "TPC-C; 8m-1w gives much of the capacity win back to "
              "conflicts");
    return 0;
}
