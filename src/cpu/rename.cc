#include "cpu/rename.hh"

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v
{

RenameUnit::RenameUnit(unsigned int_regs, unsigned fp_regs,
                       stats::Group *parent)
    : intRegs_(int_regs), fpRegs_(fp_regs),
      statGroup_("rename", parent),
      intAllocs_(statGroup_.scalar("int_allocs",
                                   "integer renaming registers "
                                   "allocated")),
      fpAllocs_(statGroup_.scalar("fp_allocs",
                                  "FP renaming registers allocated")),
      renameStalls_(statGroup_.scalar("stalls",
                                      "issue stalls: rename pool "
                                      "exhausted"))
{
}

void
RenameUnit::allocate(bool need_int, bool need_fp)
{
    if (need_int) {
        if (intUsed_ >= intRegs_)
            panic("integer rename pool overflow");
        ++intUsed_;
        ++intAllocs_;
    }
    if (need_fp) {
        if (fpUsed_ >= fpRegs_)
            panic("fp rename pool overflow");
        ++fpUsed_;
        ++fpAllocs_;
    }
}

void
RenameUnit::release(bool had_int, bool had_fp)
{
    if (had_int) {
        if (intUsed_ == 0)
            panic("integer rename pool underflow");
        --intUsed_;
    }
    if (had_fp) {
        if (fpUsed_ == 0)
            panic("fp rename pool underflow");
        --fpUsed_;
    }
}


void
RenameUnit::checkpoint(ckpt::Archive &ar)
{
    ar.u32(intUsed_);
    ar.u32(fpUsed_);
    ar.require(intUsed_ <= intRegs_ && fpUsed_ <= fpRegs_,
               "rename pool occupancy exceeds configured size");
}

} // namespace s64v
