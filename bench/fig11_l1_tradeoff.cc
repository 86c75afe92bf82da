/**
 * @file
 * Figure 11 — "L1 cache: latency vs volume": IPC of the 32-KB
 * direct-mapped 3-cycle L1 relative to the 128-KB 2-way 4-cycle L1.
 * Paper shape: TPC-C loses ~2.0 % with the small cache; SPEC is
 * closer to neutral (some programs enjoy the shorter latency).
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
    printHeader("Figure 11. L1 cache --- latency vs volume "
                "(IPC ratio, base = 128k-2w.4c = 100%)");

    const std::vector<GridRow> rows = standardRows();
    const auto grid =
        runGrid(rows, {{"128k-2w.4c", sparc64vBase()},
                       {"32k-1w.3c", withSmallL1(sparc64vBase())}},
                run);

    Table t({"workload", "128k-2w.4c IPC", "32k-1w.3c IPC",
             "32k / 128k"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double ipc_big = grid[r][0].sim.ipc;
        const double ipc_small = grid[r][1].sim.ipc;
        t.addRow({rows[r].label, fmtDouble(ipc_big),
                  fmtDouble(ipc_small),
                  fmtRatioPercent(ipc_small, ipc_big)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: TPC-C ~98.0%; SPEC near 100%");
    return 0;
}
