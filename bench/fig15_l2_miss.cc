/**
 * @file
 * Figure 15 — "L2 cache miss": demand miss ratios of the three L2
 * designs of Figure 14.
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
    printHeader("Figure 15. L2 cache miss ratio (demand)");

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
         {"off.8m-1w",
          [](unsigned cpus) {
              return withOffChipL2(sparc64vBase(cpus), 1);
          }}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["l2_miss"] =
                model.system().mem().l2DemandMissRatio();
        });

    Table t({"workload", "on.2m-4w", "off.8m-2w", "off.8m-1w"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        t.addRow({rows[r].label,
                  fmtPercent(grid[r][0].metrics.at("l2_miss"), 2),
                  fmtPercent(grid[r][1].metrics.at("l2_miss"), 2),
                  fmtPercent(grid[r][2].metrics.at("l2_miss"), 2)});
    }

    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: 8m-2w clearly below 2m-4w on "
              "TPC-C; 8m-1w gives much of the capacity win back to "
              "conflicts");
    return 0;
}
