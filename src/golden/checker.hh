/**
 * @file
 * Replay/consistency checkers used the way the paper used its logic
 * simulator: every performance-model run can be cross-checked for
 * architectural consistency (all trace records retired, cycle counts
 * monotone and bounded) and for timing plausibility against the
 * independent golden model.
 */

#ifndef S64V_GOLDEN_CHECKER_HH
#define S64V_GOLDEN_CHECKER_HH

#include <string>

#include "sim/system.hh"
#include "trace/trace.hh"

namespace s64v
{

/**
 * Verify that @p result is a plausible replay of @p trace on one CPU:
 * all instructions committed, no cycle-limit abort, and a CPI inside
 * loose physical bounds. @return empty string if OK, else the first
 * violation.
 */
std::string checkReplay(const InstrTrace &trace,
                        const SimResult &result, CpuId cpu = 0);

/**
 * Cross-check the detailed model's CPI against the golden in-order
 * model's CPI for the same trace: out-of-order execution must not be
 * slower than @p slack times the in-order reference. @return empty
 * string if OK.
 */
std::string checkAgainstGolden(const InstrTrace &trace,
                               const SimResult &result,
                               double slack = 1.25, CpuId cpu = 0);

/**
 * The same check against @p golden_cpi, the golden model's CPI on the
 * run's trace (GoldenModel().run(trace).cpi). It depends on the trace
 * alone, so a harness that checks many runs of one trace computes it
 * once.
 */
std::string checkAgainstGolden(double golden_cpi,
                               const SimResult &result,
                               double slack = 1.25, CpuId cpu = 0);

} // namespace s64v

#endif // S64V_GOLDEN_CHECKER_HH
