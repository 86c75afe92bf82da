/**
 * @file
 * Figure 12 — "L1 instruction cache miss": I-cache miss ratios for
 * the two L1 designs. Paper shape: TPC-C's 32k-1w miss rate is ~99 %
 * greater than 128k-2w; SPEC suites barely miss at either size.
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
    printHeader("Figure 12. L1 instruction cache miss ratio");

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows,
        {{"128k-2w", sparc64vBase()},
         {"32k-1w", withSmallL1(sparc64vBase())}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["l1i_miss"] =
                model.system().mem().l1i(0).demandMissRatio();
        });

    Table t({"workload", "128k-2w", "32k-1w", "32k/128k"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double m_big = grid[r][0].metrics.at("l1i_miss");
        const double m_small = grid[r][1].metrics.at("l1i_miss");
        t.addRow({rows[r].label, fmtPercent(m_big, 2),
                  fmtPercent(m_small, 2),
                  fmtRatioPercent(m_small, m_big)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: TPC-C ~199% (i.e. +99%)");
    return 0;
}
