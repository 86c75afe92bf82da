/**
 * @file
 * Figure 17 — "Hardware prefetching: L2 cache miss": three miss
 * ratios per workload — "with" (all requests incl. prefetches),
 * "with-Demand" (prefetch model, demand requests only), "without"
 * (no prefetcher). The with-Demand vs without gap is the prefetch
 * benefit; the with vs with-Demand gap is useless prefetch traffic.
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
    printHeader("Figure 17. Hardware prefetching --- L2 cache miss");

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows,
        {{"with", sparc64vBase()},
         {"without", withPrefetch(sparc64vBase(), false)}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["l2_all"] = model.system().mem().l2MissRatio();
            metrics["l2_demand"] =
                model.system().mem().l2DemandMissRatio();
        });

    Table t({"workload", "with", "with-Demand", "without"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        t.addRow({rows[r].label,
                  fmtPercent(grid[r][0].metrics.at("l2_all"), 2),
                  fmtPercent(grid[r][0].metrics.at("l2_demand"), 2),
                  fmtPercent(grid[r][1].metrics.at("l2_demand"), 2)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: with-Demand < without (prefetch "
              "helps); with >= with-Demand (prefetch traffic)");
    return 0;
}
