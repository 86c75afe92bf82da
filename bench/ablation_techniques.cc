/**
 * @file
 * Ablation study for the throughput techniques of §3: speculative
 * dispatch, data forwarding (§3.1), and the non-blocking dual operand
 * access structure (§3.2: two L1D ports, eight banks). The paper
 * motivates each technique qualitatively; this harness quantifies
 * every one against the Table-1 baseline.
 */

#include <cstdio>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "obs/run_obs.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    const obs::ObsOptions run = obs::parseObsArgs(argc, argv);
    printHeader("Ablation: §3 throughput techniques "
                "(IPC ratio, base = full SPARC64 V = 100%)");

    const std::vector<MachineVariant> variants = {
        {"base", sparc64vBase()},
        {"no speculative dispatch (§3.1)",
         withSpeculativeDispatch(sparc64vBase(), false)},
        {"no data forwarding (§3.1)",
         withDataForwarding(sparc64vBase(), false)},
        {"single L1D port (§3.2)", withL1dPorts(sparc64vBase(), 1)},
        {"two L1D banks (§3.2)", withL1dBanks(sparc64vBase(), 2)},
        {"no prefetch (§3.4)", withPrefetch(sparc64vBase(), false)},
    };

    const std::vector<GridRow> rows = standardRows();
    const auto grid = runGrid(rows, variants, run);

    std::vector<std::string> headers = {"workload", "base IPC"};
    for (std::size_t v = 1; v < variants.size(); ++v)
        headers.push_back(variants[v].label);
    Table t(headers);

    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double base = grid[r][0].sim.ipc;
        std::vector<std::string> row = {rows[r].label,
                                        fmtDouble(base)};
        for (std::size_t v = 1; v < variants.size(); ++v)
            row.push_back(fmtRatioPercent(grid[r][v].sim.ipc, base));
        t.addRow(std::move(row));
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\nevery column below 100% quantifies how much the "
              "corresponding SPARC64 V design technique contributes");
    return 0;
}
