/**
 * @file
 * RAS performance study. The paper names RAS one of the three key
 * SPARC64 V features (§1); the enterprise promise is that the machine
 * keeps meeting its performance goals while correcting errors and
 * even with a failing cache way degraded out. This harness quantifies
 * both mechanisms on the paper's workloads: the throughput retained
 * under rising correctable-error rates, and with 1 or 2 of the four
 * L2 ways disabled.
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
    printHeader("RAS study: throughput retained under error "
                "correction and cache degradation "
                "(IPC ratio, base = healthy machine = 100%)");

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows,
        {{"base", sparc64vBase()},
         {"ecc-lo", withCacheErrorRate(sparc64vBase(), 1000)},
         {"ecc-hi", withCacheErrorRate(sparc64vBase(), 10000)},
         {"deg-1", withDegradedL2Ways(sparc64vBase(), 1)},
         {"deg-2", withDegradedL2Ways(sparc64vBase(), 2)}},
        run);

    Table t({"workload", "base IPC", "ECC @1e3/M", "ECC @1e4/M",
             "L2 3/4 ways", "L2 2/4 ways"});

    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double base = grid[r][0].sim.ipc;
        t.addRow({rows[r].label, fmtDouble(base),
                  fmtRatioPercent(grid[r][1].sim.ipc, base),
                  fmtRatioPercent(grid[r][2].sim.ipc, base),
                  fmtRatioPercent(grid[r][3].sim.ipc, base),
                  fmtRatioPercent(grid[r][4].sim.ipc, base)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\nECC columns: every cache corrects single-bit errors "
              "in line at the given rate (errors per million "
              "accesses).\nDegraded columns: the service processor "
              "has isolated failing L2 ways; the machine keeps "
              "running on the remainder.");
    return 0;
}
