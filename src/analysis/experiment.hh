/**
 * @file
 * Shared machinery for the per-figure bench harnesses: standard run
 * lengths and bench grids (workload rows x machine variants, run as
 * one sweep).
 */

#ifndef S64V_ANALYSIS_EXPERIMENT_HH
#define S64V_ANALYSIS_EXPERIMENT_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "model/params.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "workload/workloads.hh"

namespace s64v
{

/**
 * Standard trace lengths. Override via the environment variables
 * S64V_INSTRS (uniprocessor) and S64V_SMP_INSTRS (per CPU of an SMP
 * run) to trade accuracy against harness runtime. An unset or empty
 * variable keeps the default; any other value must be a positive
 * integer, or the call is fatal().
 */
std::size_t upRunLength();
std::size_t smpRunLength();

/**
 * Run length for the L2 capacity study (Figures 14/15): long enough
 * for multi-megabyte reuse distances to establish. Override with
 * S64V_L2_INSTRS.
 */
std::size_t l2RunLength();

/** Number of processors in the paper's "TPC-C (16P)" SMP study. */
constexpr unsigned kSmpWidth = 16;

/**
 * A labelled machine configuration of a bench grid — one column of a
 * paper figure. Constructible from a fixed machine (the common UP
 * case) or from a builder invoked with each row's CPU count (for
 * grids that mix UP and SMP rows, e.g. Figures 14/15).
 */
struct MachineVariant
{
    /** Fixed machine: every row must match its CPU count. */
    MachineVariant(std::string label, MachineParams machine);

    /** Per-row machine, built from the row's CPU count. */
    MachineVariant(std::string label,
                   std::function<MachineParams(unsigned cpus)> build);

    std::string label;
    std::function<MachineParams(unsigned cpus)> build;
};

/** One grid row: a workload played at a given SMP width and length. */
struct GridRow
{
    std::string label;    ///< row label for tables.
    std::string workload; ///< workloadByName() key.
    unsigned cpus = 1;
    /** Trace records per CPU; 0 = standard length for @c cpus. */
    std::size_t instrs = 0;
};

/** One GridRow per paper workload (UP, standard run length). */
std::vector<GridRow> standardRows();

/**
 * Run rows x variants as ONE parallel sweep (see exp::SweepRunner)
 * under the harness's parsed @p run options (SweepOptions::run):
 * every distinct trace is synthesized once, the points run on the
 * sweep worker pool, and @p metric (if any) captures component
 * statistics per point. @return results indexed [row][variant]. A
 * failed point is fatal — the figures these grids feed cannot
 * tolerate silently missing cells.
 */
std::vector<std::vector<exp::PointResult>>
runGrid(const std::vector<GridRow> &rows,
        const std::vector<MachineVariant> &variants,
        const obs::ObsOptions &run, const exp::MetricFn &metric = {});

} // namespace s64v

#endif // S64V_ANALYSIS_EXPERIMENT_HH
