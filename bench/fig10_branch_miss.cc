/**
 * @file
 * Figure 10 — "Branch prediction failures": misprediction rates for
 * the two BHT structures. Paper shape: SPEC rates identical across
 * tables; TPC-C's 4k-2w.1t rate is ~60 % greater than 16k-4w.2t.
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
    printHeader("Figure 10. Branch prediction failures");

    // The misprediction ratio lives in the branch predictor, not in
    // SimResult: a metric probe reads it on the worker thread while
    // each point's system is still alive.
    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows,
        {{"16k-4w.2t", sparc64vBase()},
         {"4k-2w.1t", withSmallBht(sparc64vBase())}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["mispredict"] =
                model.system().core(0).bpred().mispredictRatio();
        });

    Table t({"workload", "16k-4w.2t", "4k-2w.1t", "4k/16k"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double r_big = grid[r][0].metrics.at("mispredict");
        const double r_small = grid[r][1].metrics.at("mispredict");
        t.addRow({rows[r].label, fmtPercent(r_big, 2),
                  fmtPercent(r_small, 2),
                  fmtRatioPercent(r_small, r_big)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: SPEC ~100%; TPC-C ~160%");
    return 0;
}
