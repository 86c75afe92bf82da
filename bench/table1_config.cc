/**
 * @file
 * Table 1 — "Microarchitecture": prints the modelled configuration of
 * the SPARC64 V exactly as itemized in the paper, sourced from the
 * live parameter structures so the table can never drift from the
 * model.
 */

#include <cstdio>

#include "analysis/report.hh"
#include "cpu/core.hh"
#include "model/params.hh"
#include "obs/run_obs.hh"

using namespace s64v;

int
main(int argc, char **argv)
{
    s64v::obs::parseObsArgs(argc, argv);
    const MachineParams m = sparc64vBase();
    const CoreParams &c = m.sys.core;
    const MemParams &mem = m.sys.mem;

    printHeader("Table 1. Microarchitecture (modelled parameters)");

    Table t({"parameter", "value"});
    t.addRow({"Instruction set architecture", "SPARC-V9"});
    t.addRow({"Clock rate", "1.3 GHz (cycle-based model)"});
    t.addRow({"Execution control method", "out-of-order superscalar"});
    t.addRow({"Issue number", std::to_string(c.issueWidth) + "-way"});
    t.addRow({"Instruction window",
              std::to_string(c.windowEntries) + " instructions"});
    t.addRow({"Instruction fetch width",
              std::to_string(c.fetchBytes) + " bytes"});
    t.addRow({"Branch history table",
              std::to_string(c.bpred.assoc) + "-way, " +
                  std::to_string(c.bpred.entries / 1024) +
                  "K-entry"});
    t.addRow({"Execution units",
              "fixed-point: " + std::to_string(kNumIntUnits) +
                  ", floating-point: " +
                  std::to_string(kNumFpUnits) +
                  " (multiply-add), address generator: " +
                  std::to_string(kNumAgenUnits)});
    t.addRow({"Reservation station RSE",
              std::to_string(2 * c.rseEntries) + " (" +
                  std::to_string(c.rseEntries) + "/" +
                  std::to_string(c.rseEntries) +
                  ") for fixed-point"});
    t.addRow({"Reservation station RSF",
              std::to_string(2 * c.rsfEntries) + " (" +
                  std::to_string(c.rsfEntries) + "/" +
                  std::to_string(c.rsfEntries) +
                  ") for floating-point"});
    t.addRow({"Reservation station RSA",
              std::to_string(c.rsaEntries) +
                  " for address generator"});
    t.addRow({"Reservation station RSBR",
              std::to_string(c.rsbrEntries) + " for branch"});
    t.addRow({"Reorder buffer (renaming registers)",
              "fixed-point: " + std::to_string(c.intRenameRegs) +
                  ", floating-point: " +
                  std::to_string(c.fpRenameRegs)});
    t.addRow({"Load/Store queue",
              std::to_string(c.loadQueueEntries) + "/" +
                  std::to_string(c.storeQueueEntries) + " entries"});
    t.addRow({"Level 1 cache (I/D)",
              std::to_string(mem.l1i.assoc) + "-way, " +
                  std::to_string(mem.l1i.sizeBytes >> 10) + " KB"});
    t.addRow({"Level 2 cache",
              "on-chip " + std::to_string(mem.l2.assoc) + "-way " +
                  std::to_string(mem.l2.sizeBytes >> 20) + " MB"});
    t.addRow({"L1D organization",
              std::to_string(c.l1dBanks) + " banks, " +
                  std::to_string(c.l1dPorts) + " requests/cycle"});
    t.addRow({"Hardware prefetch",
              mem.prefetch.enabled ? "enabled (stream, degree " +
                      std::to_string(mem.prefetch.degree) + ")"
                                   : "disabled"});
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
