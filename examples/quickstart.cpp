/**
 * @file
 * Quickstart: configure the SPARC64 V performance model, synthesize a
 * workload trace, run it, and read the headline numbers — the
 * five-minute tour of the public API.
 *
 * Usage: quickstart [workload=TPC-C] [instrs=100000] [pipeview=N]
 *                   [--stats-json=out.json] [--trace-out=trace.json]
 *                   [--sample-out=s.jsonl] [sample-period=N]
 *                   [heartbeat=N] [--crash-report=crash.json]
 *                   [--watchdog=N] [--check=off|end|cycle]
 *                   [--inject-fault=<kind>:<n>]
 *
 * --stats-json writes the full stats tree as JSON and (unless
 * --sample-out overrides the path) an interval-sample JSONL stream
 * next to it; --trace-out writes a Chrome trace_events file loadable
 * in chrome://tracing or Perfetto.
 */

#include <cstdio>

#include "common/config.hh"
#include "cpu/pipeview.hh"
#include "model/breakdown.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    std::vector<std::string> rest; // what the run flags leave over.
    obs::ObsOptions run = obs::parseObsArgs(argc, argv, &rest);
    ConfigMap cfg;
    cfg.parseArgs(rest);
    if (!run.statsJsonPath.empty() && run.sampleOutPath.empty())
        run.sampleOutPath = run.statsJsonPath + ".intervals.jsonl";

    const std::string wl = cfg.getString("workload", "TPC-C");
    const std::size_t n =
        static_cast<std::size_t>(cfg.getU64("instrs", 100000));
    const std::size_t pipeview_n =
        static_cast<std::size_t>(cfg.getU64("pipeview", 0));
    cfg.rejectUnreadKeys();

    // 1. Pick a machine: the Table-1 SPARC64 V baseline.
    const MachineParams machine = sparc64vBase();

    // 2. Pick a workload profile and build the model.
    const WorkloadProfile profile = workloadByName(wl);
    PerfModel model(machine, run);
    model.loadWorkload(profile, n);

    // 3. Run.
    const SimResult res = model.run();

    std::printf("machine     : %s\n", machine.name.c_str());
    std::printf("workload    : %s (%zu instructions)\n",
                profile.name.c_str(), n);
    std::printf("cycles      : %llu\n",
                static_cast<unsigned long long>(res.cycles));
    std::printf("IPC         : %.3f\n", res.ipc);

    // 4. Component statistics from the live system.
    MemSystem &mem = model.system().mem();
    std::printf("L1D miss    : %.2f%%\n",
                mem.l1d(0).demandMissRatio() * 100);
    std::printf("L1I miss    : %.2f%%\n",
                mem.l1i(0).demandMissRatio() * 100);
    std::printf("L2 miss     : %.2f%%\n",
                mem.l2DemandMissRatio() * 100);
    std::printf("br mispred  : %.2f%%\n",
                model.system().core(0).bpred().mispredictRatio() *
                    100);

    // 5. The Figure-7-style execution-time breakdown: a sweep under
    //    the same flags, which writes none of the files above.
    const Breakdown b = computeBreakdown(machine, profile,
                                         n > 40000 ? 40000 : n, run);
    std::printf("breakdown   : %s\n", b.toString().c_str());

    // 6. Optional pipeline view: run a short trace with a recorder
    //    attached and print the stage-by-stage timeline of the last
    //    N committed instructions.
    if (!run.statsJsonPath.empty())
        std::printf("stats json  : %s\n", run.statsJsonPath.c_str());
    if (!run.sampleOutPath.empty())
        std::printf("samples     : %s\n", run.sampleOutPath.c_str());
    if (!run.traceOutPath.empty())
        std::printf("trace       : %s\n", run.traceOutPath.c_str());

    if (pipeview_n > 0) {
        PipeviewRecorder recorder(pipeview_n);
        System sys(machine.sys, machine.name + "-pipeview");
        sys.core(0).attachPipeview(&recorder);
        WorkloadProfile seeded = profile;
        seeded.seed = obs::effectiveWorkloadSeed(run.seed, profile.seed);
        sys.attachTrace(0, generateTrace(seeded, 2000));
        sys.run();
        std::fputs(recorder.render().c_str(), stdout);
    }
    return 0;
}
