/**
 * @file
 * Trace tooling: synthesize workload traces to disk, inspect their
 * characteristics, sample them (as the paper samples its TPC-C
 * traces), and replay a trace file through the model — the
 * trace-capture half of the paper's evaluation environment. `info`
 * also turns the trace into a performance test program with the
 * Reverse Tracer and checks that the program replays it exactly. A
 * key the chosen mode does not read is fatal.
 *
 * Usage:
 *   trace_tools mode=gen workload=TPC-C instrs=50000 out=tpcc.trc
 *   trace_tools mode=gen workload=custom wl.load=0.3 wl.pool_mb=16 \
 *               wl.pool_w=0.2 out=mine.trc
 *   trace_tools mode=info in=tpcc.trc
 *   trace_tools mode=sample in=tpcc.trc out=s.trc skip=1000 len=2000
 *   trace_tools mode=run in=tpcc.trc
 */

#include <cstdio>

#include "common/config.hh"
#include "golden/checker.hh"
#include "golden/reverse_tracer.hh"
#include "model/perf_model.hh"
#include "trace/filters.hh"
#include "trace/trace_io.hh"
#include "workload/custom.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    ConfigMap cfg;
    cfg.parseArgs(argc, argv);
    const std::string mode = cfg.getString("mode", "gen");

    // Each mode reads its keys first and refuses any key it did not
    // read before it reads, simulates or writes anything.
    if (mode == "gen") {
        const std::string wl = cfg.getString("workload", "TPC-C");
        const std::size_t n =
            static_cast<std::size_t>(cfg.getU64("instrs", 50000));
        const std::string out = cfg.getString("out", "trace.s64vtrc");
        // "custom" builds a profile from wl.* keys (see
        // workload/custom.hh for the knob list).
        const WorkloadProfile profile = wl == "custom"
            ? customProfile(cfg) : workloadByName(wl);
        cfg.rejectUnreadKeys();
        const InstrTrace t = generateTrace(profile, n);
        writeTraceFile(out, t);
        std::printf("wrote %zu records of %s to %s\n", t.size(),
                    profile.name.c_str(), out.c_str());
        return 0;
    }

    const std::string in = cfg.getString("in", "trace.s64vtrc");

    if (mode == "info") {
        cfg.rejectUnreadKeys();
        const InstrTrace t = readTraceFile(in);
        std::printf("workload: %s\n", t.workloadName().c_str());
        const std::string err = validateTrace(t);
        std::printf("validity: %s\n",
                    err.empty() ? "ok" : err.c_str());
        std::fputs(summarizeTrace(t).toString().c_str(), stdout);
        // The trace as a performance test program (Reverse Tracer),
        // replayed back and compared record by record.
        const std::string rt_err = verifyReverseTrace(t);
        const TestProgram prog = TestProgram::fromTrace(t);
        std::printf("reverse tracer: %s (%zu static instrs, %.1f%% of "
                    "trace size)\n",
                    rt_err.empty() ? "round-trip exact" : rt_err.c_str(),
                    prog.staticInstructions(),
                    prog.compressionRatio() * 100);
        return 0;
    }

    if (mode == "sample") {
        const std::size_t skip =
            static_cast<std::size_t>(cfg.getU64("skip", 0));
        const std::size_t len =
            static_cast<std::size_t>(cfg.getU64("len", 10000));
        const std::string out =
            cfg.getString("out", "sample.s64vtrc");
        cfg.rejectUnreadKeys();
        const InstrTrace s = sampleTrace(readTraceFile(in), skip, len);
        writeTraceFile(out, s);
        std::printf("sampled %zu records to %s\n", s.size(),
                    out.c_str());
        return 0;
    }

    if (mode == "run") {
        cfg.rejectUnreadKeys();
        const InstrTrace t = readTraceFile(in);
        PerfModel model(sparc64vBase());
        model.loadTrace(0, t);
        const SimResult res = model.run();
        std::printf("instructions: %llu\ncycles: %llu\nIPC: %.3f\n",
                    static_cast<unsigned long long>(
                        res.instructions),
                    static_cast<unsigned long long>(res.cycles),
                    res.ipc);
        const std::string replay = checkReplay(t, res);
        std::printf("replay check: %s\n",
                    replay.empty() ? "ok" : replay.c_str());
        return 0;
    }

    std::fprintf(stderr,
                 "unknown mode '%s' (gen|info|sample|run)\n",
                 mode.c_str());
    return 1;
}
