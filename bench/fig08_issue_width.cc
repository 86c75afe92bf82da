/**
 * @file
 * Figure 8 — "Issue width: 4-way vs 2-way": IPC of the 4-way machine
 * relative to a 2-way machine. Paper shape: every workload gains;
 * SPECint95/SPECint2000 gain the most (high cache-hit ratios).
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
    printHeader("Figure 8. Issue width --- 4-way vs 2-way "
                "(IPC ratio, base = 2-way = 100%)");

    // Workloads x widths as one parallel sweep; each workload's
    // trace is synthesized once and shared by both machines.
    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows, {{"2-way", withIssueWidth(sparc64vBase(), 2)},
               {"4-way", sparc64vBase()}},
        run);

    Table t({"workload", "2-way IPC", "4-way IPC", "4w/2w"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double ipc2 = grid[r][0].sim.ipc;
        const double ipc4 = grid[r][1].sim.ipc;
        t.addRow({rows[r].label, fmtDouble(ipc2), fmtDouble(ipc4),
                  fmtRatioPercent(ipc4, ipc2)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: all > 100%; SPECint95/2000 improve "
              "the most");
    return 0;
}
