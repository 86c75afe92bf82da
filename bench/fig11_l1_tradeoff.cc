/**
 * @file
 * Figures 11, 12 and 13 — the L1 trade-off, from one sweep over the
 * two L1 designs.
 *
 * Figure 11, "L1 cache: latency vs volume": IPC of the 32-KB
 * direct-mapped 3-cycle L1 relative to the 128-KB 2-way 4-cycle L1.
 * Paper shape: TPC-C loses ~2.0 % with the small cache; SPEC is
 * closer to neutral (some programs enjoy the shorter latency).
 *
 * Figure 12, "L1 instruction cache miss": I-cache miss ratios for
 * the two designs. Paper shape: TPC-C's 32k-1w miss rate is ~99 %
 * greater than 128k-2w; SPEC suites barely miss at either size.
 *
 * Figure 13, "L1 operand cache miss": D-cache miss ratios for the
 * two designs. Paper shape: TPC-C's 32k-1w operand miss rate is
 * ~64 % greater than 128k-2w.
 */

#include <cstdio>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "obs/run_obs.hh"

using namespace s64v;

namespace
{

/** One miss-ratio figure: both designs and their ratio per row. */
void
printMissFigure(const std::vector<GridRow> &rows,
                const std::vector<std::vector<exp::PointResult>> &grid,
                const char *metric, const char *title,
                const char *reference)
{
    printHeader(title);
    Table t({"workload", "128k-2w", "32k-1w", "32k/128k"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double m_big = grid[r][0].metrics.at(metric);
        const double m_small = grid[r][1].metrics.at(metric);
        t.addRow({rows[r].label, fmtPercent(m_big, 2),
                  fmtPercent(m_small, 2),
                  fmtRatioPercent(m_small, m_big)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\npaper reference: %s\n", reference);
}

} // namespace

int
main(int argc, char **argv)
{
    const obs::ObsOptions run = obs::parseObsArgs(argc, argv);
    printHeader("Figure 11. L1 cache --- latency vs volume "
                "(IPC ratio, base = 128k-2w.4c = 100%)");

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(
        rows,
        {{"128k-2w.4c", sparc64vBase()},
         {"32k-1w.3c", withSmallL1(sparc64vBase())}},
        run,
        [](PerfModel &model, const SimResult &,
           std::map<std::string, double> &metrics) {
            metrics["l1i_miss"] =
                model.system().mem().l1i(0).demandMissRatio();
            metrics["l1d_miss"] =
                model.system().mem().l1d(0).demandMissRatio();
        });

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

    printMissFigure(rows, grid, "l1i_miss",
                    "Figure 12. L1 instruction cache miss ratio",
                    "TPC-C ~199% (i.e. +99%)");
    printMissFigure(rows, grid, "l1d_miss",
                    "Figure 13. L1 operand cache miss ratio",
                    "TPC-C ~164% (i.e. +64%)");
    return 0;
}
