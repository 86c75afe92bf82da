/**
 * @file
 * Figure 19 — "Performance model accuracy".
 *
 * Upper graph: performance estimates of model versions v1..v8 on the
 * SPEC CPU2000 suites, normalized to v8. The trend is downward as
 * rigidity grows, with the v5 exception (precise special-instruction
 * modelling replaces a pessimistic fixed penalty). Every version's
 * runs are cross-checked the way the paper used its logic simulator:
 * the replay must be architecturally complete and no slower than the
 * independent in-order golden model allows (the "verified" column).
 *
 * Lower graph: accuracy against the "physical machine" over the
 * validation timeline. The proprietary silicon is substituted by the
 * final fully-detailed model (v8 with final parameters); intermediate
 * timeline points carry the not-yet-corrected memory-system
 * parameters (latency, bus width, outstanding numbers), producing the
 * abrupt jumps the paper describes. Final accuracy targets: 3.9 %
 * (SPECfp2000) and 4.2 % (SPECint2000).
 */

#include <cmath>
#include <cstdio>
#include <mutex>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "golden/checker.hh"
#include "golden/golden.hh"
#include "model/versions.hh"
#include "obs/run_obs.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    exp::SweepOptions opts;
    opts.run = obs::parseObsArgs(argc, argv);
    const exp::SweepRunner runner(opts);
    const std::size_t n = upRunLength();
    const WorkloadProfile wl_int = workloadByName("SPECint2000");
    const WorkloadProfile wl_fp = workloadByName("SPECfp2000");

    printHeader("Figure 19 (upper). Estimates vs model version "
                "(normalized to v8 = 100%)");

    // All 2 x 8 version estimates as one parallel sweep; the two
    // workload traces are synthesized once each and shared by every
    // model version.
    exp::Sweep versions;
    for (unsigned v = 1; v <= kNumModelVersions; ++v) {
        versions.add("v" + std::to_string(v) + "/int",
                     modelVersion(v), wl_int, n);
        versions.add("v" + std::to_string(v) + "/fp",
                     modelVersion(v), wl_fp, n);
    }
    // Each run is verified against its own trace while its System is
    // alive: replay completeness, then the golden-model CPI bound. The
    // golden CPI depends on the trace alone, and every version of a
    // workload shares that workload's trace, so the golden model runs
    // once per workload, on the trace of the first point to get there.
    struct GoldenCpi
    {
        std::once_flag once;
        double cpi = 0.0;
    };
    GoldenCpi golden_int, golden_fp;
    versions.setMetricFn([&](PerfModel &model, const SimResult &res,
                             std::map<std::string, double> &metrics) {
        const InstrTrace &trace = *model.system().trace(0);
        const char *check = "replay";
        std::string err = checkReplay(trace, res);
        if (err.empty()) {
            check = "golden";
            GoldenCpi &golden = trace.workloadName() == wl_int.name
                ? golden_int : golden_fp;
            std::call_once(golden.once, [&] {
                golden.cpi = GoldenModel().run(trace).cpi;
            });
            err = checkAgainstGolden(golden.cpi, res, 1.8);
        }
        if (!err.empty())
            warn("%s on %s: %s check failed: %s",
                 model.params().name.c_str(),
                 trace.workloadName().c_str(), check, err.c_str());
        metrics["verified"] = err.empty() ? 1.0 : 0.0;
    });
    const std::vector<exp::PointResult> vres = runner.run(versions);
    for (const exp::PointResult &p : vres) {
        if (!p.ok)
            fatal("sweep point '%s' failed: %s", p.label.c_str(),
                  p.error.c_str());
    }

    double v8_int = 0.0, v8_fp = 0.0;
    std::vector<double> ipc_int(kNumModelVersions + 1);
    std::vector<double> ipc_fp(kNumModelVersions + 1);
    for (unsigned v = 1; v <= kNumModelVersions; ++v) {
        ipc_int[v] = vres[2 * (v - 1)].sim.ipc;
        ipc_fp[v] = vres[2 * (v - 1) + 1].sim.ipc;
    }
    v8_int = ipc_int[kNumModelVersions];
    v8_fp = ipc_fp[kNumModelVersions];

    Table up({"version", "SPECint2000", "SPECfp2000", "verified",
              "change"});
    for (unsigned v = 1; v <= kNumModelVersions; ++v) {
        const bool verified =
            vres[2 * (v - 1)].metrics.at("verified") != 0.0 &&
            vres[2 * (v - 1) + 1].metrics.at("verified") != 0.0;
        up.addRow({"v" + std::to_string(v),
                   fmtRatioPercent(ipc_int[v], v8_int),
                   fmtRatioPercent(ipc_fp[v], v8_fp),
                   verified ? "ok" : "FAILED",
                   modelVersionDescription(v)});
    }
    std::fputs(up.render().c_str(), stdout);
    std::puts("\npaper reference: estimates decrease with version, "
              "except the v5 rise");

    printHeader("Figure 19 (lower). Accuracy vs the physical "
                "machine over the validation timeline");

    // The "physical machine": the final design including the silicon
    // details the software model abstracts (see physicalMachine()).
    // It and every timeline point run in one sweep.
    exp::Sweep timeline;
    timeline.add("phys/int", physicalMachine(), wl_int, n);
    timeline.add("phys/fp", physicalMachine(), wl_fp, n);
    const std::vector<TimelinePoint> pts = validationTimeline();
    for (const TimelinePoint &pt : pts) {
        const MachineParams m =
            applyTimelinePoint(sparc64vBase(), pt);
        timeline.add(pt.label + "/int", m, wl_int, n);
        timeline.add(pt.label + "/fp", m, wl_fp, n);
    }
    const std::vector<exp::PointResult> tres = runner.run(timeline);
    for (const exp::PointResult &p : tres) {
        if (!p.ok)
            fatal("sweep point '%s' failed: %s", p.label.c_str(),
                  p.error.c_str());
    }
    const double phys_int = tres[0].sim.ipc;
    const double phys_fp = tres[1].sim.ipc;

    Table low({"time", "int2000 model/phys", "fp2000 model/phys",
               "int err", "fp err"});
    double final_int_err = 0.0, final_fp_err = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const TimelinePoint &pt = pts[i];
        const double mi = tres[2 + 2 * i].sim.ipc;
        const double mf = tres[2 + 2 * i + 1].sim.ipc;
        final_int_err = std::fabs(mi / phys_int - 1.0);
        final_fp_err = std::fabs(mf / phys_fp - 1.0);
        low.addRow({pt.label, fmtRatioPercent(mi, phys_int),
                    fmtRatioPercent(mf, phys_fp),
                    fmtPercent(final_int_err),
                    fmtPercent(final_fp_err)});
    }
    std::fputs(low.render().c_str(), stdout);
    std::printf("\nfinal accuracy: SPECint2000 %.1f%%, SPECfp2000 "
                "%.1f%% (paper: 4.2%% / 3.9%% against silicon)\n",
                final_int_err * 100, final_fp_err * 100);
    return 0;
}
