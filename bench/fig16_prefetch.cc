/**
 * @file
 * Figures 16 and 17 — the hardware-prefetch trade-off, from one sweep
 * over the machine without and with the L2 stream prefetcher.
 *
 * Figure 16, "Hardware prefetching impact": IPC with the prefetcher
 * relative to a non-prefetch model. Paper shape: SPECfp suites
 * improve by more than 13 %; other suites improve modestly.
 *
 * Figure 17, "Hardware prefetching: L2 cache miss": three miss
 * ratios per workload — "with" (all requests incl. prefetches),
 * "with-Demand" (prefetch model, demand requests only), "without"
 * (no prefetcher). The with-Demand vs without gap is the prefetch
 * benefit; the with vs with-Demand gap is useless prefetch traffic.
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
        rows,
        {{"no-prefetch", withPrefetch(sparc64vBase(), false)},
         {"prefetch", sparc64vBase()}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["l2_all"] = model.system().mem().l2MissRatio();
            metrics["l2_demand"] =
                model.system().mem().l2DemandMissRatio();
        });

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

    printHeader("Figure 17. Hardware prefetching --- L2 cache miss");
    Table miss({"workload", "with", "with-Demand", "without"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const exp::PointResult &off = grid[r][0];
        const exp::PointResult &on = grid[r][1];
        miss.addRow({rows[r].label,
                     fmtPercent(on.metrics.at("l2_all"), 2),
                     fmtPercent(on.metrics.at("l2_demand"), 2),
                     fmtPercent(off.metrics.at("l2_demand"), 2)});
    }
    std::fputs(miss.render().c_str(), stdout);
    std::puts("\npaper reference: with-Demand < without (prefetch "
              "helps); with >= with-Demand (prefetch traffic)");
    return 0;
}
