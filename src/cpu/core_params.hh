/**
 * @file
 * Configuration of the SPARC64 V out-of-order core model. Defaults
 * correspond to Table 1 of the paper.
 */

#ifndef S64V_CPU_CORE_PARAMS_HH
#define S64V_CPU_CORE_PARAMS_HH

#include <cstdint>

namespace s64v
{

/** Branch-history-table configuration (paper §4.3.2). */
struct BranchPredParams
{
    unsigned entries = 16384; ///< "16k-4w.2t" default.
    unsigned assoc = 4;
    unsigned takenBubbles = 2;///< fetch bubbles per predicted-taken
                              ///< branch (BHT access latency).
    bool perfect = false;     ///< idealization for Figure 7.
};

/** Modelling fidelity for "special" instructions (Figure 19 ladder). */
enum class SpecialInstrMode : std::uint8_t
{
    OneCycle,     ///< early model versions: plain 1-cycle op.
    FixedPenalty, ///< pessimistic experimental penalty (pre-v5).
    Precise,      ///< serialize + store-queue drain (v5 onward).
};

/** Core microarchitecture parameters (Table 1 defaults). */
struct CoreParams
{
    unsigned issueWidth = 4;      ///< decode/issue per cycle.
    unsigned commitWidth = 4;
    unsigned windowEntries = 64;  ///< instruction window.
    unsigned intRenameRegs = 32;
    unsigned fpRenameRegs = 32;

    unsigned fetchBytes = 32;     ///< up to eight instructions.
    unsigned fetchQueueEntries = 24;
    unsigned mispredictRedirect = 3; ///< resolve-to-refetch cycles.

    unsigned rsaEntries = 10;     ///< address-generation station.
    unsigned rsbrEntries = 10;    ///< branch station.
    unsigned rseEntries = 8;      ///< per integer station (x2).
    unsigned rsfEntries = 8;      ///< per FP station (x2).
    /**
     * "1RS" study (§4.4.1): merge the two RSE (and RSF) stations into
     * one double-size station dispatching up to two ops per cycle.
     */
    bool unifiedRs = false;

    unsigned loadQueueEntries = 16;
    unsigned storeQueueEntries = 10;
    unsigned l1dPorts = 2;
    unsigned l1dBanks = 8;

    unsigned dispatchToExec = 2;  ///< dispatch -> regread -> exec.

    bool speculativeDispatch = true; ///< §3.1 technique.
    bool dataForwarding = true;      ///< §3.1 technique.

    SpecialInstrMode specialMode = SpecialInstrMode::Precise;
    unsigned specialPenalty = 30; ///< FixedPenalty mode cost.

    BranchPredParams bpred;
};

} // namespace s64v

#endif // S64V_CPU_CORE_PARAMS_HH
