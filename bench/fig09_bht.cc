/**
 * @file
 * Figure 9 — "Branch history table: latency vs size": IPC of the
 * 4K-entry 2-way 1-cycle BHT relative to the 16K-entry 4-way 2-cycle
 * BHT. Paper shape: SPEC roughly neutral (slight benefit possible
 * from the shorter bubble), TPC-C loses ~5.6 %.
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
    printHeader("Figure 9. Branch history table --- latency vs size "
                "(IPC ratio, base = 16k-4w.2t = 100%)");

    const std::vector<GridRow> rows = standardRows();
    const auto grid =
        runGrid(rows, {{"16k-4w.2t", sparc64vBase()},
                       {"4k-2w.1t", withSmallBht(sparc64vBase())}},
                run);

    Table t({"workload", "16k-4w.2t IPC", "4k-2w.1t IPC",
             "4k-2w.1t / 16k-4w.2t"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double ipc_big = grid[r][0].sim.ipc;
        const double ipc_small = grid[r][1].sim.ipc;
        t.addRow({rows[r].label, fmtDouble(ipc_big),
                  fmtDouble(ipc_small),
                  fmtRatioPercent(ipc_small, ipc_big)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: SPEC ~100% (slight 1t benefit), "
              "TPC-C ~94.4%");
    return 0;
}
