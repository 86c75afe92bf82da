/**
 * @file
 * Trace post-processing: sampling (the paper samples its TPC-C traces)
 * and summary statistics used to validate that synthesized traces
 * exhibit the intended characteristics.
 */

#ifndef S64V_TRACE_FILTERS_HH
#define S64V_TRACE_FILTERS_HH

#include <array>
#include <cstddef>
#include <string>

#include "trace/trace.hh"

namespace s64v
{

/**
 * Extract a contiguous sample of @p length records starting at
 * @p skip. Clamps to the trace end.
 */
InstrTrace sampleTrace(const InstrTrace &trace, std::size_t skip,
                       std::size_t length);

/** Aggregate characteristics of a trace. */
struct TraceSummary
{
    std::size_t instructions = 0;
    std::array<std::size_t,
               static_cast<std::size_t>(InstrClass::NumClasses)>
        classCounts{};

    double loadFraction = 0.0;
    double storeFraction = 0.0;
    double branchFraction = 0.0;
    double fpFraction = 0.0;
    double takenFraction = 0.0;      ///< of conditional branches.
    double privilegedFraction = 0.0;
    std::size_t distinctCodeLines = 0; ///< 64B line granularity.
    std::size_t distinctDataLines = 0;
    std::size_t distinctBranchPcs = 0;

    /** Render a short human-readable report. */
    std::string toString() const;
};

/** Compute a TraceSummary over @p trace. */
TraceSummary summarizeTrace(const InstrTrace &trace);

/**
 * Verify basic well-formedness of a trace: every record passes
 * recordValid (known class, register ids in range), memory ops have
 * nonzero size and addresses, taken branches have targets. @return
 * empty string if OK, else a description of the first violation.
 */
std::string validateTrace(const InstrTrace &trace);

} // namespace s64v

#endif // S64V_TRACE_FILTERS_HH
