/**
 * @file
 * Renaming-register allocation. The SPARC64 V keeps up to 32 integer
 * and 32 floating-point results in renaming registers; issue stalls
 * when the pool is exhausted (Table 1).
 */

#ifndef S64V_CPU_RENAME_HH
#define S64V_CPU_RENAME_HH

#include "common/stats.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** Counting allocator for the integer and FP renaming-register pools. */
class RenameUnit
{
  public:
    RenameUnit(unsigned int_regs, unsigned fp_regs,
               stats::Group *parent);

    bool
    canAllocate(bool need_int, bool need_fp) const
    {
        return (!need_int || intUsed_ < intRegs_) &&
               (!need_fp || fpUsed_ < fpRegs_);
    }

    void allocate(bool need_int, bool need_fp);
    void release(bool had_int, bool had_fp);

    unsigned intInUse() const { return intUsed_; }
    unsigned fpInUse() const { return fpUsed_; }

    /** Count issue stalls caused by pool exhaustion. */
    void noteStall(std::uint64_t n = 1) { renameStalls_ += n; }

    /** Write or read mutable state (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    unsigned intRegs_;
    unsigned fpRegs_;
    unsigned intUsed_ = 0;
    unsigned fpUsed_ = 0;

    stats::Group statGroup_;
    stats::Scalar &intAllocs_;
    stats::Scalar &fpAllocs_;
    stats::Scalar &renameStalls_;
};

} // namespace s64v

#endif // S64V_CPU_RENAME_HH
