/**
 * @file
 * Shared trace synthesis for sweeps. Synthesizing a workload trace is
 * expensive (and, worse, was historically repeated per sweep point);
 * the pool synthesizes each distinct (profile, SMP width, length)
 * combination exactly once and hands out shared immutable trace sets
 * that every sweep point over that workload references.
 */

#ifndef S64V_EXP_TRACE_POOL_HH
#define S64V_EXP_TRACE_POOL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "trace/trace.hh"
#include "workload/profile.hh"

namespace s64v::exp
{

/**
 * Cache of synthesized trace sets. NOT thread-safe: the sweep runner
 * performs all synthesis up front on one thread (which also keeps
 * generation deterministic regardless of worker count); the shared
 * traces it hands out are immutable and safe to read from any number
 * of concurrently running sweep points.
 */
class TracePool
{
  public:
    /** One trace per CPU of the target system. */
    using TraceSet = std::vector<std::shared_ptr<const InstrTrace>>;

    /**
     * Get or synthesize the trace set for @p profile on a
     * @p num_cpus-way system, @p instrs records per CPU. Identity is
     * (profile.name, profile.seed, num_cpus, instrs) — the same
     * identity TraceGenerator's determinism contract is keyed on.
     * The profile is synthesized as given: a run's --seed= is mixed
     * in by the caller (SweepRunner), not here.
     */
    const TraceSet &acquire(const WorkloadProfile &profile,
                            unsigned num_cpus, std::size_t instrs);

    /** Distinct trace sets synthesized so far. */
    std::size_t setsSynthesized() const { return pool_.size(); }

  private:
    using Key =
        std::tuple<std::string, std::uint64_t, unsigned, std::size_t>;

    std::map<Key, TraceSet> pool_;
};

} // namespace s64v::exp

#endif // S64V_EXP_TRACE_POOL_HH
