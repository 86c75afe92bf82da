#include "chaos/config_fuzzer.hh"

#include <algorithm>

#include "common/random.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v::chaos
{

namespace
{

/** Per-point seed-stream discriminators (arbitrary constants). */
constexpr std::uint64_t kWorkloadStream = 0x776f726b6c6f6164ull;
constexpr std::uint64_t kDeltaStream = 0x64656c7461ull;

/** A catalogue entry: rolls one concrete ConfigDelta from the dice. */
using DeltaGen = std::function<ConfigDelta(Rng &)>;

/**
 * Every delta kind the fuzzer can emit. Values are restricted to
 * choices every mutator accepts (see the fatal() guards in
 * model/params.cc) so a fuzzed machine always constructs.
 */
const std::vector<DeltaGen> &
deltaCatalog()
{
    static const std::vector<DeltaGen> catalog = {
        [](Rng &rng) {
            const unsigned widths[] = {2, 4};
            const unsigned w =
                widths[rng.below(std::size(widths))];
            return ConfigDelta{
                "issue-width=" + std::to_string(w),
                [w](MachineParams m) {
                    return withIssueWidth(std::move(m), w);
                }};
        },
        [](Rng &) {
            return ConfigDelta{"small-bht", [](MachineParams m) {
                                   return withSmallBht(std::move(m));
                               }};
        },
        [](Rng &) {
            return ConfigDelta{"small-l1", [](MachineParams m) {
                                   return withSmallL1(std::move(m));
                               }};
        },
        [](Rng &rng) {
            const unsigned assoc = 1 + static_cast<unsigned>(
                                           rng.below(2));
            return ConfigDelta{
                "offchip-l2=" + std::to_string(assoc) + "w",
                [assoc](MachineParams m) {
                    return withOffChipL2(std::move(m), assoc);
                }};
        },
        [](Rng &) {
            return ConfigDelta{"no-prefetch", [](MachineParams m) {
                                   return withPrefetch(std::move(m),
                                                       false);
                               }};
        },
        [](Rng &) {
            return ConfigDelta{"unified-rs", [](MachineParams m) {
                                   return withUnifiedRs(std::move(m),
                                                        true);
                               }};
        },
        [](Rng &) {
            return ConfigDelta{
                "no-spec-dispatch", [](MachineParams m) {
                    return withSpeculativeDispatch(std::move(m),
                                                   false);
                }};
        },
        [](Rng &) {
            return ConfigDelta{
                "no-forwarding", [](MachineParams m) {
                    return withDataForwarding(std::move(m), false);
                }};
        },
        [](Rng &rng) {
            const unsigned ports = 1 + static_cast<unsigned>(
                                           rng.below(2));
            return ConfigDelta{
                "l1d-ports=" + std::to_string(ports),
                [ports](MachineParams m) {
                    return withL1dPorts(std::move(m), ports);
                }};
        },
        [](Rng &rng) {
            const unsigned banks = 4u << rng.below(3); // 4/8/16.
            return ConfigDelta{
                "l1d-banks=" + std::to_string(banks),
                [banks](MachineParams m) {
                    return withL1dBanks(std::move(m), banks);
                }};
        },
        [](Rng &rng) {
            const std::uint64_t mb = std::uint64_t{1}
                << rng.below(3); // 1/2/4 MB.
            return ConfigDelta{
                "l2-size=" + std::to_string(mb) + "MB",
                [mb](MachineParams m) {
                    m.sys.mem.l2.sizeBytes = mb << 20;
                    m.name += "-l2." + std::to_string(mb) + "m";
                    return m;
                }};
        },
        [](Rng &rng) {
            const unsigned ways = 1 + static_cast<unsigned>(
                                          rng.below(2)); // 1 or 2.
            return ConfigDelta{
                "l2-degraded-ways=" + std::to_string(ways),
                [ways](MachineParams m) {
                    // Repair rather than reject: an earlier delta may
                    // have lowered the associativity below `ways`.
                    const unsigned assoc = m.sys.mem.l2.assoc;
                    const unsigned usable =
                        std::min(ways, assoc > 1 ? assoc - 1 : 0u);
                    if (usable != 0)
                        m = withDegradedL2Ways(std::move(m), usable);
                    return m;
                }};
        },
        [](Rng &rng) {
            // Per-million-access correctable-error rate; small enough
            // that ECC penalties perturb rather than dominate timing.
            const double rate = 1.0 + rng.uniform() * 9.0;
            const long centi = static_cast<long>(rate * 100);
            return ConfigDelta{
                "cache-error-rate=" + std::to_string(centi) + "e-2",
                [rate](MachineParams m) {
                    return withCacheErrorRate(std::move(m), rate);
                }};
        },
    };
    return catalog;
}

} // namespace

MachineParams
ChaosPoint::machine() const
{
    MachineParams m = sparc64vBase(numCpus);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        if (i < active.size() && active[i])
            m = deltas[i].apply(std::move(m));
    }
    // Final repair pass: deltas validate against the machine *they*
    // see, so a later delta can still break an earlier one's
    // precondition (e.g. l2-degraded-ways=1 followed by offchip-l2=1w
    // leaves 1 degraded way of an 1-way cache). Clamp cross-delta
    // interactions here so the validity contract holds for every
    // delta order.
    CacheParams &l2 = m.sys.mem.l2;
    if (l2.ras.degradedWays >= l2.assoc)
        l2.ras.degradedWays = l2.assoc - 1;
    return m;
}

WorkloadProfile
ChaosPoint::profile() const
{
    WorkloadProfile prof = workloadByName(workload);
    Rng rng(mixSeeds(pointSeed, kWorkloadStream));
    // Trace mutations: fresh synthesis seed plus bounded jitter on
    // the control-flow and dependency character. Bounds keep every
    // mutated profile inside validate()'s envelope.
    prof.seed = rng.next();
    prof.userCode.hardBranchFraction = 0.05 + rng.uniform() * 0.20;
    prof.depNearProb = 0.40 + rng.uniform() * 0.35;
    prof.validate();
    return prof;
}

std::vector<std::shared_ptr<const InstrTrace>>
ChaosPoint::traces() const
{
    TraceGenerator gen(profile(), numCpus);
    std::vector<std::shared_ptr<const InstrTrace>> out;
    for (CpuId cpu = 0; cpu < numCpus; ++cpu) {
        out.push_back(std::make_shared<const InstrTrace>(
            gen.generate(instrs, cpu)));
    }
    return out;
}

std::string
ChaosPoint::label() const
{
    std::string out = "chaos#" + std::to_string(index) + " " +
        workload + " x" + std::to_string(instrs);
    if (numCpus > 1)
        out += " " + std::to_string(numCpus) + "p";
    const std::vector<std::string> names = activeDeltaNames();
    if (!names.empty()) {
        out += " [";
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (i != 0)
                out += "+";
            out += names[i];
        }
        out += "]";
    }
    return out;
}

std::size_t
ChaosPoint::activeCount() const
{
    std::size_t n = 0;
    for (const std::uint8_t a : active)
        n += a != 0;
    return n;
}

std::vector<std::string>
ChaosPoint::activeDeltaNames() const
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        if (i < active.size() && active[i])
            names.push_back(deltas[i].name);
    }
    return names;
}

ChaosPoint
ConfigFuzzer::point(std::size_t index) const
{
    ChaosPoint p;
    p.campaignSeed = seed_;
    p.index = index;
    p.pointSeed = mixSeeds(seed_, index);

    Rng rng(p.pointSeed);
    static const char *const kWorkloads[] = {
        "specint95", "specfp95", "specint2000", "specfp2000", "tpcc"};
    p.workload = kWorkloads[rng.below(std::size(kWorkloads))];
    // TPC-C is the paper's SMP workload; sometimes run it 2P so the
    // coherence machinery is inside the fuzzed surface.
    p.numCpus =
        (p.workload == "tpcc" && rng.chance(0.5)) ? 2 : 1;
    // Short traces keep a campaign point in the milliseconds; the
    // invariants compare runs against each other, not against steady
    // state, so absolute trace length only sets the noise floor.
    p.instrs = 2000 + rng.below(3000);

    Rng deltaRng(mixSeeds(p.pointSeed, kDeltaStream));
    const auto &catalog = deltaCatalog();
    const std::size_t want = deltaRng.below(4); // 0..3 deltas.
    std::vector<std::size_t> picks(catalog.size());
    for (std::size_t i = 0; i < picks.size(); ++i)
        picks[i] = i;
    // Partial Fisher–Yates: the first `want` entries are a uniform
    // draw without replacement.
    for (std::size_t i = 0; i < want && i < picks.size(); ++i) {
        const std::size_t j = i + static_cast<std::size_t>(
                                      deltaRng.below(picks.size() - i));
        std::swap(picks[i], picks[j]);
        p.deltas.push_back(catalog[picks[i]](deltaRng));
    }
    p.active.assign(p.deltas.size(), 1);
    return p;
}

std::size_t
ConfigFuzzer::deltaKinds()
{
    return deltaCatalog().size();
}

} // namespace s64v::chaos
