/**
 * @file
 * SPARC-V9-flavoured instruction abstraction. The performance model is
 * trace driven, so instructions carry only the attributes that affect
 * timing: an operation class, register operands, and (for memory and
 * control transfer) effective address / outcome information recorded
 * in the trace.
 */

#ifndef S64V_ISA_INSTR_HH
#define S64V_ISA_INSTR_HH

#include <cstdint>

namespace s64v
{

/** Timing-relevant operation classes. */
enum class InstrClass : std::uint8_t
{
    IntAlu,      ///< add/sub/logical/shift/sethi; 1-cycle integer op.
    IntMul,      ///< integer multiply.
    IntDiv,      ///< integer divide (long, unpipelined).
    FpAdd,       ///< FP add/sub/compare/convert.
    FpMul,       ///< FP multiply.
    FpMulAdd,    ///< fused multiply-add (the SPARC64 V FL units).
    FpDiv,       ///< FP divide / sqrt (long, unpipelined).
    Load,        ///< memory load.
    Store,       ///< memory store.
    BranchCond,  ///< conditional branch.
    BranchUncond,///< unconditional branch / jump.
    Call,        ///< call (writes link register).
    Return,      ///< return (jmpl through link).
    Special,     ///< membar / atomic / register-window spill-fill etc.
    Nop,         ///< no-op.
    NumClasses
};

/** Register identifiers: 0..63 integer, 64..127 floating point. */
using RegId = std::uint8_t;

constexpr RegId kNoReg = 0xff;
constexpr RegId kFirstFpReg = 64;
constexpr unsigned kNumIntRegs = 64;
constexpr unsigned kNumFpRegs = 64;

/** @return true iff @p r names a floating-point register. */
constexpr bool
isFpReg(RegId r)
{
    return r != kNoReg && r >= kFirstFpReg;
}

/**
 * Static attribute queries on an operation class. Defined inline:
 * they sit on the per-entry hot paths of the issue/dispatch/commit
 * scans, where an out-of-line call per query dominates the compare
 * itself. @{
 */
constexpr bool
isMemClass(InstrClass c)
{
    return c == InstrClass::Load || c == InstrClass::Store;
}

constexpr bool
isLoadClass(InstrClass c)
{
    return c == InstrClass::Load;
}

constexpr bool
isStoreClass(InstrClass c)
{
    return c == InstrClass::Store;
}

constexpr bool
isBranchClass(InstrClass c)
{
    return c == InstrClass::BranchCond ||
        c == InstrClass::BranchUncond || c == InstrClass::Call ||
        c == InstrClass::Return;
}

constexpr bool
isCondBranchClass(InstrClass c)
{
    return c == InstrClass::BranchCond;
}

constexpr bool
isFpClass(InstrClass c)
{
    return c == InstrClass::FpAdd || c == InstrClass::FpMul ||
        c == InstrClass::FpMulAdd || c == InstrClass::FpDiv;
}
/** @} */

/**
 * Execution latency in cycles for @p c on the SPARC64 V pipelines
 * (loads report the address-generation part only; cache access time
 * is added by the memory model). 0 for an out-of-range class — the
 * callers all sit behind trace validation.
 */
constexpr unsigned
execLatency(InstrClass c)
{
    switch (c) {
      case InstrClass::IntAlu:
      case InstrClass::Nop:
        return 1;
      case InstrClass::IntMul:
        return 4;
      case InstrClass::IntDiv:
        return 37;
      case InstrClass::FpAdd:
      case InstrClass::FpMul:
      case InstrClass::FpMulAdd:
        return 4;
      case InstrClass::FpDiv:
        return 19;
      case InstrClass::Load:
      case InstrClass::Store:
        return 1; // address generation; cache time added separately
      case InstrClass::BranchCond:
      case InstrClass::BranchUncond:
      case InstrClass::Call:
      case InstrClass::Return:
        return 1;
      case InstrClass::Special:
        return 1; // modelled separately (see SpecialInstrMode)
      default:
        return 0;
    }
}

/** @return true iff the unit is busy (unpipelined) while executing. */
constexpr bool
isUnpipelined(InstrClass c)
{
    return c == InstrClass::IntDiv || c == InstrClass::FpDiv;
}

/** Short mnemonic-like name for dumps ("int", "fma", "ld", ...). */
const char *className(InstrClass c);

} // namespace s64v

#endif // S64V_ISA_INSTR_HH
