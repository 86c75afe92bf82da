/**
 * @file
 * Figure 16 — "Hardware prefetching impact": IPC with the L2 stream
 * prefetcher relative to a non-prefetch model. Paper shape: SPECfp
 * suites improve by more than 13 %; other suites improve modestly.
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
    printHeader("Figure 16. Hardware prefetching impact "
                "(IPC ratio, base = without prefetch = 100%)");

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows, {{"no-prefetch", withPrefetch(sparc64vBase(), false)},
               {"prefetch", sparc64vBase()}},
        run);

    Table t({"workload", "no-prefetch IPC", "prefetch IPC",
             "with/without"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double off = grid[r][0].sim.ipc;
        const double on = grid[r][1].sim.ipc;
        t.addRow({rows[r].label, fmtDouble(off), fmtDouble(on),
                  fmtRatioPercent(on, off)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\npaper reference: SPECfp95/SPECfp2000 > 113%");
    return 0;
}
