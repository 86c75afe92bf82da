/**
 * @file
 * Enterprise-server capacity planning: the scenario that motivates
 * the paper's design. Sweep the SMP width on the TPC-C workload and
 * report aggregate throughput, per-CPU efficiency, and the
 * memory-system pressure that limits scaling — the kind of study a
 * system architect would run on the performance model before
 * committing a server configuration.
 *
 * Usage: tpcc_capacity_planning [instrs=20000] [maxcpus=16]
 */

#include <cstdio>

#include "analysis/report.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "workload/workloads.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    std::vector<std::string> rest; // what the run flags leave over.
    exp::SweepOptions opts;
    opts.run = obs::parseObsArgs(argc, argv, &rest);
    ConfigMap cfg;
    cfg.parseArgs(rest);
    const std::size_t n =
        static_cast<std::size_t>(cfg.getU64("instrs", 20000));
    const unsigned max_cpus =
        static_cast<unsigned>(cfg.getU64("maxcpus", 16));

    printHeader("TPC-C capacity planning sweep");

    Table t({"CPUs", "throughput (IPC)", "per-CPU IPC", "efficiency",
             "bus busy", "c2c transfers"});

    // All SMP widths as one parallel sweep; component counters come
    // back through a metric probe.
    exp::Sweep sweep;
    for (unsigned cpus = 1; cpus <= max_cpus; cpus *= 2)
        sweep.add(std::to_string(cpus) + "P", sparc64vBase(cpus),
                  tpccProfile(), n);
    sweep.setMetricFn([](PerfModel &model, const SimResult &res,
                         std::map<std::string, double> &metrics) {
        MemSystem &mem = model.system().mem();
        metrics["bus_busy"] = res.cycles
            ? static_cast<double>(mem.bus().conflictCycles()) /
                res.cycles
            : 0.0;
        metrics["c2c"] =
            static_cast<double>(mem.coherence().dirtySupplies());
    });
    const std::vector<exp::PointResult> results =
        exp::SweepRunner(opts).run(sweep);

    double base_per_cpu = 0.0;
    std::size_t i = 0;
    for (unsigned cpus = 1; cpus <= max_cpus; cpus *= 2, ++i) {
        const exp::PointResult &p = results[i];
        if (!p.ok)
            fatal("sweep point '%s' failed: %s", p.label.c_str(),
                  p.error.c_str());
        const SimResult &res = p.sim;

        double per_cpu = 0.0;
        for (const CoreResult &cr : res.cores)
            per_cpu += cr.ipc;
        per_cpu /= res.cores.size();
        if (cpus == 1)
            base_per_cpu = per_cpu;

        t.addRow({std::to_string(cpus), fmtDouble(res.ipc),
                  fmtDouble(per_cpu),
                  fmtRatioPercent(per_cpu, base_per_cpu),
                  fmtDouble(p.metrics.at("bus_busy"), 2),
                  std::to_string(static_cast<std::uint64_t>(
                      p.metrics.at("c2c")))});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\nefficiency = per-CPU IPC relative to the "
              "uniprocessor; the drop quantifies the cost of bus "
              "contention and coherence traffic that the paper's "
              "\"well-balanced communication structure\" goal "
              "targets.");
    for (const std::string &key : cfg.unconsumedKeys())
        warn("unused option '%s'", key.c_str());
    return 0;
}
