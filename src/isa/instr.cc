#include "isa/instr.hh"

namespace s64v
{

const char *
className(InstrClass c)
{
    switch (c) {
      case InstrClass::IntAlu: return "int";
      case InstrClass::IntMul: return "imul";
      case InstrClass::IntDiv: return "idiv";
      case InstrClass::FpAdd: return "fadd";
      case InstrClass::FpMul: return "fmul";
      case InstrClass::FpMulAdd: return "fma";
      case InstrClass::FpDiv: return "fdiv";
      case InstrClass::Load: return "ld";
      case InstrClass::Store: return "st";
      case InstrClass::BranchCond: return "bcc";
      case InstrClass::BranchUncond: return "ba";
      case InstrClass::Call: return "call";
      case InstrClass::Return: return "ret";
      case InstrClass::Special: return "spec";
      case InstrClass::Nop: return "nop";
      default: return "?";
    }
}

} // namespace s64v
