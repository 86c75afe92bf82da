/**
 * @file
 * Shared parameter structures and result types for the memory-system
 * model. Latencies are in CPU cycles at the SPARC64 V's 1.3 GHz.
 */

#ifndef S64V_MEM_MEMTYPES_HH
#define S64V_MEM_MEMTYPES_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "mem/ras.hh"

namespace s64v
{

/** Cache line size used throughout the model. */
constexpr unsigned kLineSize = 64;

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 128 << 10;
    unsigned assoc = 2;
    unsigned latency = 4;        ///< access (hit) latency in cycles.
    unsigned mshrs = 16;         ///< outstanding line misses.
    bool offChip = false;        ///< adds chip-crossing latency.
    unsigned offChipPenalty = 13;///< ~10 ns at 1.3 GHz (paper, §4.3.4).
    RasParams ras{};             ///< ECC / degraded-way modelling.

    unsigned numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (kLineSize * assoc));
    }
    unsigned totalLatency() const
    {
        return latency + (offChip ? offChipPenalty : 0);
    }
};

/** TLB geometry and page-walk cost. */
struct TlbParams
{
    unsigned entries = 512;
    unsigned assoc = 4;
    unsigned pageBytes = 8192;
    unsigned walkLatency = 40;
};

/** System bus between the SX-units and the memory system. */
struct BusParams
{
    unsigned bytesPerCycle = 8;   ///< usable bandwidth in CPU cycles.
    unsigned requestLatency = 4;  ///< address/command phase.
};

/** Main-memory controller. */
struct MemCtrlParams
{
    unsigned channels = 2;
    unsigned accessLatency = 120; ///< first-word latency.
    unsigned occupancy = 24;      ///< channel busy time per access.
};

/** SMP snooping parameters. */
struct SnoopParams
{
    unsigned snoopLatency = 16;      ///< broadcast + tag-probe time.
    unsigned cacheToCache = 36;      ///< L2-to-L2 transfer latency.
};

/** Result of a timed memory access. */
struct AccessResult
{
    Cycle ready = 0;    ///< cycle the data can be consumed.
    bool l1Hit = true;
    bool l2Hit = true;  ///< meaningful only when !l1Hit.
    bool tlbMiss = false; ///< translation paid a page-walk penalty.
};

} // namespace s64v

#endif // S64V_MEM_MEMTYPES_HH
