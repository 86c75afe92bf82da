/**
 * @file
 * SMP scaling ablation: the paper's thesis is that multi-user
 * interactive throughput is "very sensitive to system balance". This
 * harness sweeps the processor count on TPC-C and attributes the
 * efficiency loss to bus occupancy and coherence traffic, with a
 * doubled-bandwidth counterfactual showing the balance sensitivity.
 */

#include <cstdio>
#include <iterator>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "obs/run_obs.hh"

using namespace s64v;

namespace
{

/** Per-CPU IPC of one point (aggregate of the core IPCs). */
double
perCpuIpc(const SimResult &res)
{
    double per_cpu = 0.0;
    for (const CoreResult &cr : res.cores)
        per_cpu += cr.ipc;
    return per_cpu / res.cores.size();
}

} // namespace

int
main(int argc, char **argv)
{
    exp::SweepOptions opts;
    opts.run = obs::parseObsArgs(argc, argv);
    printHeader("Ablation: TPC-C SMP scaling and system balance");

    const std::size_t n = smpRunLength();
    const WorkloadProfile tpcc = workloadByName("TPC-C");
    const unsigned widths[] = {1, 2, 4, 8, 16};

    // Balance counterfactual: a rebalanced communication structure at
    // 16P -- twice the bus bandwidth, a faster command phase, and
    // twice the memory channels. It rides in the same sweep as the
    // width scan (and shares the 16P trace with the stock machine).
    MachineParams wide = sparc64vBase(16);
    wide.sys.mem.bus.bytesPerCycle *= 2;
    wide.sys.mem.bus.requestLatency /= 2;
    wide.sys.mem.memctrl.channels *= 2;
    wide.name += "-rebalanced";

    exp::Sweep sweep;
    for (unsigned cpus : widths)
        sweep.add(std::to_string(cpus) + "P", sparc64vBase(cpus),
                  tpcc, n);
    sweep.add("16P-rebalanced", wide, tpcc, n);
    sweep.setMetricFn([](PerfModel &model, const SimResult &res,
                         std::map<std::string, double> &metrics) {
        MemSystem &mem = model.system().mem();
        metrics["c2c"] =
            static_cast<double>(mem.coherence().dirtySupplies());
        metrics["invals"] = static_cast<double>(
            mem.coherence().invalidationsSent());
        metrics["bus_wait_per_ki"] = res.measured
            ? 1000.0 * static_cast<double>(
                  mem.bus().conflictCycles()) / res.measured
            : 0.0;
    });

    const std::vector<exp::PointResult> results =
        exp::SweepRunner(opts).run(sweep);
    for (const exp::PointResult &p : results) {
        if (!p.ok)
            fatal("sweep point '%s' failed: %s", p.label.c_str(),
                  p.error.c_str());
    }

    Table t({"CPUs", "throughput", "per-CPU IPC", "efficiency",
             "bus wait/ki", "c2c", "invalidations"});

    const double base_per_cpu = perCpuIpc(results[0].sim);
    for (std::size_t i = 0; i < std::size(widths); ++i) {
        const exp::PointResult &p = results[i];
        t.addRow({std::to_string(widths[i]), fmtDouble(p.sim.ipc),
                  fmtDouble(perCpuIpc(p.sim)),
                  fmtRatioPercent(perCpuIpc(p.sim), base_per_cpu),
                  fmtDouble(p.metrics.at("bus_wait_per_ki"), 1),
                  std::to_string(static_cast<std::uint64_t>(
                      p.metrics.at("c2c"))),
                  std::to_string(static_cast<std::uint64_t>(
                      p.metrics.at("invals")))});
    }
    std::fputs(t.render().c_str(), stdout);

    const double base16 = results[std::size(widths) - 1].sim.ipc;
    const double wide16 = results[std::size(widths)].sim.ipc;
    std::printf("\n16P throughput with a rebalanced bus/memory path: "
                "%s of the stock system (%0.3f vs %0.3f IPC)\n",
                fmtRatioPercent(wide16, base16).c_str(),
                wide16, base16);
    std::puts("the gap is the \"system balance\" headroom the paper's "
              "methodology is designed to expose before silicon");
    return 0;
}
