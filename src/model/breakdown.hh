/**
 * @file
 * Execution-time breakdown via the paper's §4.2 methodology: model
 * perfect L2, perfect L1/TLB, and perfect branch prediction, then
 * attribute the time differences to "sx" (L2-miss stalls), "ibs/tlb"
 * (L1 + TLB stalls), "branch" (misprediction stalls), and "core".
 */

#ifndef S64V_MODEL_BREAKDOWN_HH
#define S64V_MODEL_BREAKDOWN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "model/params.hh"
#include "obs/cpi_stack.hh"
#include "obs/run_obs.hh"
#include "workload/profile.hh"

namespace s64v
{

class System;

/** Figure 7 stack for one workload (fractions of execution time). */
struct Breakdown
{
    double core = 0.0;   ///< I-unit + E-unit execution.
    double branch = 0.0; ///< branch-misprediction stalls.
    double ibsTlb = 0.0; ///< L1-miss and TLB-miss stalls.
    double sx = 0.0;     ///< L2-miss (SX-unit) stalls.

    std::string toString() const;
};

/**
 * Compute the breakdown by differential simulation.
 *
 * @param base machine configuration (UP or SMP).
 * @param profile workload to synthesize.
 * @param instrs_per_cpu trace length per CPU.
 * @param run the entry point's run options, applied as a sweep
 * applies them (SweepOptions::run): seed, threads, watchdog, check
 * level, engine. The differential runs write no files.
 */
Breakdown computeBreakdown(const MachineParams &base,
                           const WorkloadProfile &profile,
                           std::size_t instrs_per_cpu,
                           const obs::ObsOptions &run);

/** One workload's Figure 7 stack by both methods. */
struct WorkloadBreakdown
{
    /** The §4.2 differential ladder (four runs). */
    Breakdown differential;
    /** The commit-slot stack of the ladder's real-machine run. */
    Breakdown cpiStack;
};

/**
 * Batch form: breakdowns for many workloads at once. All
 * 4 * profiles.size() differential simulations run as one parallel
 * sweep (see exp::SweepRunner), with each workload's trace
 * synthesized once and shared across its four model variants. A
 * metric probe reads each real-machine run's commit-slot stack, so
 * the single-pass breakdown costs no extra run.
 * @return one WorkloadBreakdown per profile, in order.
 */
std::vector<WorkloadBreakdown>
computeBreakdowns(const MachineParams &base,
                  const std::vector<WorkloadProfile> &profiles,
                  std::size_t instrs_per_cpu,
                  const obs::ObsOptions &run);

/**
 * Fold a single-pass commit-slot stack (obs::CpiStack) into the
 * Fig. 7 categories: branch = branch-squash slots; ibs/tlb = L1I +
 * L1D + TLB-miss slots; sx = L2-miss slots; core = everything else
 * (committed work, empty-window fetch, window-full, serialize, RAW
 * dependencies). One run instead of the four-run differential ladder;
 * see DESIGN.md for how closely the two agree.
 */
Breakdown breakdownFromCpiStack(const obs::CpiStackCounts &counts);

/** Sum every core's commit-slot stack in @p sys. */
obs::CpiStackCounts collectCpiStack(System &sys);

} // namespace s64v

#endif // S64V_MODEL_BREAKDOWN_HH
