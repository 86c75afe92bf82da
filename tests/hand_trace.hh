/**
 * @file
 * A host-independent synthetic trace for tests that pin exact output
 * values. The workload generator draws run lengths through
 * Rng::geometric, which calls libm log(); a digest pinned over its
 * traces would hold only on hosts whose log() rounds the same way.
 * handTrace() uses nothing but Rng::below and Rng::chance, so the
 * records, and every stat a run derives from them, are the same
 * everywhere.
 */

#ifndef S64V_TESTS_HAND_TRACE_HH
#define S64V_TESTS_HAND_TRACE_HH

#include <cstddef>
#include <cstdint>

#include "common/random.hh"
#include "trace/trace.hh"

namespace s64v::testutil
{

/**
 * @p instrs records for CPU @p cpu: loops over a 64 KB code region
 * with integer, FP, load/store, branch and occasional serializing
 * instructions. Data accesses mix a hot 16 KB set, a 1 MB set that
 * misses the L1 and a 64 MB set that misses the L2; on an SMP run a
 * fifth of them go to a 256 KB region every CPU shares.
 */
inline InstrTrace
handTrace(std::uint64_t seed, std::size_t instrs, unsigned cpu)
{
    Rng rng(mixSeeds(seed, cpu + 1));
    InstrTrace t("hand");
    t.reserve(instrs);
    const Addr code = 0x100000 + Addr{cpu} * 0x1000000;
    const Addr data = 0x40000000 + Addr{cpu} * 0x10000000;
    constexpr Addr kShared = 0x20000000;
    Addr pc = code;
    auto reg = [&] { return static_cast<RegId>(1 + rng.below(31)); };
    auto fpReg = [&] {
        return static_cast<RegId>(kFirstFpReg + rng.below(32));
    };
    auto address = [&]() -> Addr {
        if (rng.chance(0.2))
            return kShared + rng.below(256 * 1024 / 8) * 8;
        const std::uint64_t k = rng.below(100);
        const std::uint64_t span =
            k < 80 ? 16 * 1024 : (k < 96 ? 1024 * 1024 : 64 << 20);
        return data + rng.below(span / 8) * 8;
    };
    for (std::size_t i = 0; i < instrs; ++i) {
        TraceRecord r;
        r.pc = pc;
        Addr next = pc + 4;
        const std::uint64_t k = rng.below(100);
        if (k < 24) {
            r.cls = InstrClass::Load;
            r.dst = reg();
            r.src1 = reg();
            r.ea = address();
            r.size = 8;
        } else if (k < 34) {
            r.cls = InstrClass::Store;
            r.src1 = reg();
            r.src2 = reg();
            r.ea = address();
            r.size = 8;
        } else if (k < 48) {
            r.cls = InstrClass::BranchCond;
            r.src1 = reg();
            r.ea = code + rng.below(64 * 1024 / 4) * 4;
            if (rng.chance(0.6)) {
                r.flags |= kFlagTaken;
                next = r.ea;
            }
        } else if (k < 56) {
            r.cls = rng.chance(0.5) ? InstrClass::FpAdd
                                    : InstrClass::FpMul;
            r.dst = fpReg();
            r.src1 = fpReg();
            r.src2 = fpReg();
        } else if (k < 59) {
            r.cls = InstrClass::IntMul;
            r.dst = reg();
            r.src1 = reg();
            r.src2 = reg();
        } else if (k < 60) {
            r.cls = InstrClass::Special;
        } else {
            r.cls = InstrClass::IntAlu;
            r.dst = reg();
            r.src1 = reg();
            r.src2 = rng.chance(0.5) ? reg() : kNoReg;
        }
        if (r.size != 0 && r.ea >= kShared &&
            r.ea < kShared + 256 * 1024) {
            r.flags |= kFlagSharedData;
        }
        t.append(r);
        pc = next;
    }
    return t;
}

} // namespace s64v::testutil

#endif // S64V_TESTS_HAND_TRACE_HH
