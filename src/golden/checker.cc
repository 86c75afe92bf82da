#include "golden/checker.hh"

#include <cstdio>

#include "golden/golden.hh"

namespace s64v
{

std::string
checkReplay(const InstrTrace &trace, const SimResult &result,
            CpuId cpu)
{
    char buf[200];
    if (cpu >= result.cores.size())
        return "result has no such cpu";
    const CoreResult &cr = result.cores[cpu];

    if (result.hitCycleCap)
        return "simulation aborted at the cycle limit";
    if (cr.committed != trace.size()) {
        std::snprintf(buf, sizeof(buf),
                      "committed %llu of %zu trace records",
                      static_cast<unsigned long long>(cr.committed),
                      trace.size());
        return buf;
    }
    if (trace.size() > 0 && cr.lastCommitCycle == 0)
        return "nonempty trace finished at cycle 0";
    const double cpi = cr.committed
        ? static_cast<double>(cr.lastCommitCycle) / cr.committed
        : 0.0;
    // Physical bounds: a 4-issue machine cannot beat 0.25 CPI, and
    // even a fully memory-bound workload stays under ~400 CPI.
    if (trace.size() > 1000 && (cpi < 0.25 || cpi > 400.0)) {
        std::snprintf(buf, sizeof(buf),
                      "implausible CPI %.3f", cpi);
        return buf;
    }
    return "";
}

std::string
checkAgainstGolden(const InstrTrace &trace, const SimResult &result,
                   double slack, CpuId cpu)
{
    return checkAgainstGolden(GoldenModel().run(trace).cpi, result,
                              slack, cpu);
}

std::string
checkAgainstGolden(double golden_cpi, const SimResult &result,
                   double slack, CpuId cpu)
{
    char buf[200];
    if (cpu >= result.cores.size())
        return "result has no such cpu";
    const CoreResult &cr = result.cores[cpu];
    if (cr.committed == 0)
        return "no instructions committed";

    const double model_cpi = cr.ipc > 0.0
        ? 1.0 / cr.ipc
        : static_cast<double>(cr.lastCommitCycle) / cr.committed;
    if (golden_cpi <= 0.0)
        return "golden model produced no cycles";
    if (model_cpi > golden_cpi * slack) {
        std::snprintf(buf, sizeof(buf),
                      "detailed model CPI %.3f exceeds golden "
                      "in-order CPI %.3f x slack %.2f",
                      model_cpi, golden_cpi, slack);
        return buf;
    }
    return "";
}

} // namespace s64v
