/**
 * @file
 * Figures 9 and 10 — the branch-history-table trade-off, from one
 * sweep over the two BHT structures.
 *
 * Figure 9, "Branch history table: latency vs size": IPC of the
 * 4K-entry 2-way 1-cycle BHT relative to the 16K-entry 4-way 2-cycle
 * BHT. Paper shape: SPEC roughly neutral (slight benefit possible
 * from the shorter bubble), TPC-C loses ~5.6 %.
 *
 * Figure 10, "Branch prediction failures": misprediction rates for
 * the two structures. Paper shape: SPEC rates identical across
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
    printHeader("Figure 9. Branch history table --- latency vs size "
                "(IPC ratio, base = 16k-4w.2t = 100%)");

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

    Table ipc({"workload", "16k-4w.2t IPC", "4k-2w.1t IPC",
               "4k-2w.1t / 16k-4w.2t"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double ipc_big = grid[r][0].sim.ipc;
        const double ipc_small = grid[r][1].sim.ipc;
        ipc.addRow({rows[r].label, fmtDouble(ipc_big),
                    fmtDouble(ipc_small),
                    fmtRatioPercent(ipc_small, ipc_big)});
    }
    std::fputs(ipc.render().c_str(), stdout);
    std::puts("\npaper reference: SPEC ~100% (slight 1t benefit), "
              "TPC-C ~94.4%");

    printHeader("Figure 10. Branch prediction failures");
    Table miss({"workload", "16k-4w.2t", "4k-2w.1t", "4k/16k"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double r_big = grid[r][0].metrics.at("mispredict");
        const double r_small = grid[r][1].metrics.at("mispredict");
        miss.addRow({rows[r].label, fmtPercent(r_big, 2),
                     fmtPercent(r_small, 2),
                     fmtRatioPercent(r_small, r_big)});
    }
    std::fputs(miss.render().c_str(), stdout);
    std::puts("\npaper reference: SPEC ~100%; TPC-C ~160%");
    return 0;
}
