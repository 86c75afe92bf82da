/**
 * @file
 * Figure 13 — "L1 operand cache miss": D-cache miss ratios for the
 * two L1 designs. Paper shape: TPC-C's 32k-1w operand miss rate is
 * ~64 % greater than 128k-2w.
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
    printHeader("Figure 13. L1 operand cache miss ratio");

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows,
        {{"128k-2w", sparc64vBase()},
         {"32k-1w", withSmallL1(sparc64vBase())}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["l1d_miss"] =
                model.system().mem().l1d(0).demandMissRatio();
        });

    Table t({"workload", "128k-2w", "32k-1w", "32k/128k"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double m_big = grid[r][0].metrics.at("l1d_miss");
        const double m_small = grid[r][1].metrics.at("l1d_miss");
        t.addRow({rows[r].label, fmtPercent(m_big, 2),
                  fmtPercent(m_small, 2),
                  fmtRatioPercent(m_small, m_big)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: TPC-C ~164% (i.e. +64%)");
    return 0;
}
