/**
 * @file
 * Metamorphic invariants for the chaos campaign. Each invariant takes
 * one fuzzed ChaosPoint and checks a relation that must hold between
 * *related runs* of the model — no golden numbers required, which is
 * what lets seeded-random configurations be checked at all:
 *
 *   cache-mono      growing the L2 must not increase its miss count
 *                   (beyond a small merge-timing tolerance).
 *   issue-mono      widening the issue width must not lower IPC
 *                   beyond noise (narrowing must not raise it).
 *   ckpt-replay     checkpoint at a seeded-random mid-run cycle, then
 *                   restore: the resumed run must be bit-identical
 *                   (SimResult and stats JSON document) to one that
 *                   was never interrupted.
 *   serial-parallel the same three-point sweep run with 1 worker and
 *                   with 3 workers must produce bit-identical results
 *                   point for point.
 *   warmup-band     measured IPC with the standard warm-up (1/5 of
 *                   the trace) and a longer warm-up (1/2) must agree
 *                   within a wide error band — fast-forwarding
 *                   through more warm-up never changes steady state
 *                   beyond sampling noise.
 *   golden-agree    the architectural replay check must pass on every
 *                   CPU, and (for the unmodified base machine) the
 *                   detailed model must stay within slack of the
 *                   independent golden in-order model.
 *   storm           randomized fault-injection storms; see
 *                   chaos/storm.hh.
 *
 * A violated invariant yields a Violation whose `signature` is stable
 * across seeds (used by the triage sink to dedup) and whose `detail`
 * carries the concrete numbers.
 */

#ifndef S64V_CHAOS_INVARIANTS_HH
#define S64V_CHAOS_INVARIANTS_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/config_fuzzer.hh"

namespace s64v::chaos
{

/** One confirmed invariant violation. */
struct Violation
{
    std::string invariant; ///< invariant name.
    std::string signature; ///< stable dedup key (invariant + mode).
    std::string detail;    ///< human diagnosis with the numbers.
};

/** A named check over one chaos point. */
struct Invariant
{
    std::string name;
    std::string description;
    std::function<std::optional<Violation>(const ChaosPoint &)> check;
};

/** Every invariant, including the fault-injection storm. */
const std::vector<Invariant> &invariantCatalog();

/**
 * Resolve a selection string: "" or "all" selects the whole
 * catalogue, otherwise a comma-separated list of names. fatal() on an
 * unknown name (listing the valid ones).
 */
std::vector<Invariant> selectInvariants(const std::string &selection);

} // namespace s64v::chaos

#endif // S64V_CHAOS_INVARIANTS_HH
