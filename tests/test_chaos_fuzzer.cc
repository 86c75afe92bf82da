/**
 * @file
 * Tests for the chaos configuration fuzzer (chaos/config_fuzzer.hh):
 * determinism of point generation and of a point's traces, the
 * validity contract (every fuzzed machine constructs, whatever the
 * delta order), and the active-mask mechanics the shrinker relies on.
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "chaos/config_fuzzer.hh"
#include "common/logging.hh"
#include "model/fingerprint.hh"
#include "model/params.hh"
#include "obs/run_obs.hh"
#include "sim/system.hh"
#include "workload/generator.hh"

namespace s64v::chaos
{
namespace
{

TEST(ChaosFuzzer, PointIsAPureFunctionOfSeedAndIndex)
{
    const ConfigFuzzer a(42);
    const ConfigFuzzer b(42);
    for (std::size_t i = 0; i < 20; ++i) {
        const ChaosPoint pa = a.point(i);
        const ChaosPoint pb = b.point(i);
        EXPECT_EQ(pa.pointSeed, pb.pointSeed);
        EXPECT_EQ(pa.workload, pb.workload);
        EXPECT_EQ(pa.numCpus, pb.numCpus);
        EXPECT_EQ(pa.instrs, pb.instrs);
        EXPECT_EQ(pa.activeDeltaNames(), pb.activeDeltaNames());
        EXPECT_EQ(pa.label(), pb.label());
        // The machines they build are the same configuration.
        EXPECT_EQ(pa.machine().name, pb.machine().name);
        // And the mutated workload profiles match.
        EXPECT_EQ(pa.profile().seed, pb.profile().seed);
        EXPECT_EQ(pa.profile().depNearProb, pb.profile().depNearProb);
    }
}

TEST(ChaosFuzzer, TracesIgnoreAParsedSeed)
{
    // A campaign run without --seed= uses seed 1, and its printed
    // replay command passes --seed=1: both must replay the same
    // instruction streams, the point profile's own.
    std::vector<std::vector<std::uint64_t>> before;
    for (std::size_t i = 0; i < 4; ++i) {
        std::vector<std::uint64_t> fps;
        for (const auto &t : ConfigFuzzer(1).point(i).traces())
            fps.push_back(fingerprintTrace(*t));
        before.push_back(fps);
    }

    const char *argv[] = {"chaos_campaign", "--seed=1"};
    ASSERT_EQ(obs::parseObsArgs(2, argv).seed, 1u);

    for (std::size_t i = 0; i < 4; ++i) {
        const ChaosPoint p = ConfigFuzzer(1).point(i);
        const auto traces = p.traces();
        ASSERT_EQ(traces.size(), p.numCpus);
        TraceGenerator gen(p.profile(), p.numCpus);
        for (CpuId cpu = 0; cpu < p.numCpus; ++cpu) {
            EXPECT_EQ(fingerprintTrace(*traces[cpu]), before[i][cpu])
                << p.label();
            EXPECT_EQ(fingerprintTrace(gen.generate(p.instrs, cpu)),
                      before[i][cpu])
                << p.label();
        }
    }
}

TEST(ChaosFuzzer, DifferentSeedsExploreDifferentPoints)
{
    const ConfigFuzzer a(1);
    const ConfigFuzzer b(2);
    bool differed = false;
    for (std::size_t i = 0; i < 10 && !differed; ++i)
        differed = a.point(i).label() != b.point(i).label();
    EXPECT_TRUE(differed);
}

TEST(ChaosFuzzer, EveryFuzzedMachineConstructsAndValidates)
{
    ScopedThrowOnError guard;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const ConfigFuzzer fuzzer(seed);
        for (std::size_t i = 0; i < 40; ++i) {
            const ChaosPoint p = fuzzer.point(i);
            SCOPED_TRACE(p.label());
            // machine() runs every mutator's fatal() guards;
            // constructing the System runs the component-level
            // validation (cache geometry, degraded ways, ...).
            const MachineParams m = p.machine();
            EXPECT_NO_THROW({ System sys(m.sys, m.name); });
            // The mutated profile must already be validate()d.
            const WorkloadProfile prof = p.profile();
            EXPECT_GT(prof.depNearProb, 0.0);
            EXPECT_GE(p.instrs, 2000u);
        }
    }
}

TEST(ChaosFuzzer, DeltaOrderInteractionsAreRepaired)
{
    // l2-degraded-ways validates against the associativity it sees;
    // a later offchip-l2=1w lowers it to 1 way, which once produced
    // an unconstructible machine. The final repair pass in machine()
    // must clamp the leftover degradation.
    ChaosPoint p;
    p.numCpus = 1;
    p.workload = "specint95";
    p.instrs = 2000;
    p.deltas.push_back(
        {"l2-degraded-ways=1", [](MachineParams m) {
             return withDegradedL2Ways(std::move(m), 1);
         }});
    p.deltas.push_back({"offchip-l2=1w", [](MachineParams m) {
                            return withOffChipL2(std::move(m), 1);
                        }});
    p.active.assign(p.deltas.size(), 1);

    ScopedThrowOnError guard;
    MachineParams m;
    EXPECT_NO_THROW(m = p.machine());
    EXPECT_LT(m.sys.mem.l2.ras.degradedWays, m.sys.mem.l2.assoc);
    EXPECT_NO_THROW({ System sys(m.sys, m.name); });
}

TEST(ChaosFuzzer, ActiveMaskControlsWhichDeltasApply)
{
    // Find a fuzzed point that actually carries deltas.
    const ConfigFuzzer fuzzer(7);
    ChaosPoint p;
    for (std::size_t i = 0; i < 50; ++i) {
        p = fuzzer.point(i);
        if (p.activeCount() >= 2)
            break;
    }
    ASSERT_GE(p.activeCount(), 2u);

    // All deltas off: the machine is the unmodified base.
    ChaosPoint off = p;
    off.active.assign(off.deltas.size(), 0);
    EXPECT_EQ(off.activeCount(), 0u);
    EXPECT_EQ(off.machine().name, sparc64vBase(p.numCpus).name);
    EXPECT_TRUE(off.activeDeltaNames().empty());

    // One delta back on: exactly that name resurfaces.
    ChaosPoint one = off;
    one.active[0] = 1;
    ASSERT_EQ(one.activeDeltaNames().size(), 1u);
    EXPECT_EQ(one.activeDeltaNames()[0], p.deltas[0].name);
}

TEST(ChaosFuzzer, LabelNamesTheExperiment)
{
    const ConfigFuzzer fuzzer(7);
    const ChaosPoint p = fuzzer.point(3);
    const std::string label = p.label();
    EXPECT_NE(label.find("chaos#3"), std::string::npos) << label;
    EXPECT_NE(label.find(p.workload), std::string::npos) << label;
    for (const std::string &name : p.activeDeltaNames())
        EXPECT_NE(label.find(name), std::string::npos) << label;
}

TEST(ChaosFuzzer, CatalogIsNonTrivial)
{
    EXPECT_GE(ConfigFuzzer::deltaKinds(), 10u);
}

} // namespace
} // namespace s64v::chaos
