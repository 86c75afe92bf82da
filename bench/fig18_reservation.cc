/**
 * @file
 * Figure 18 — "Reservation station: 1RS vs 2RS": IPC of the
 * two-station structure (one station per execution unit, one
 * dispatch each) relative to a unified station dispatching two ops
 * per cycle. Paper shape: 2RS is slightly below 1RS everywhere; the
 * simplicity won the trade-off.
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
    printHeader("Figure 18. Reservation station --- 1RS vs 2RS "
                "(IPC ratio, base = 1RS = 100%)");

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows, {{"1RS", withUnifiedRs(sparc64vBase(), true)},
               {"2RS", sparc64vBase()}}, // 2RS is the default.
        run);

    Table t({"workload", "1RS IPC", "2RS IPC", "2RS/1RS"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double ipc1 = grid[r][0].sim.ipc;
        const double ipc2 = grid[r][1].sim.ipc;
        t.addRow({rows[r].label, fmtDouble(ipc1), fmtDouble(ipc2),
                  fmtRatioPercent(ipc2, ipc1)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: 2RS slightly below 100% on every "
              "workload");
    return 0;
}
