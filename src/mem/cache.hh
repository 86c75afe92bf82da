/**
 * @file
 * Set-associative cache tag arrays and the timed non-blocking cache
 * built on top of them (MSHRs, copy-back dirty state, prefetch
 * marking). The timed hierarchy in mem/hierarchy.hh drives these.
 */

#ifndef S64V_MEM_CACHE_HH
#define S64V_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memtypes.hh"

namespace s64v
{

namespace obs { class ChromeTraceWriter; }
namespace ckpt { class Archive; }

/** Outcome of inserting a line: what (if anything) was evicted. */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;
};

/**
 * Pure tag array with true-LRU replacement. Addresses are full byte
 * addresses; the array works at line granularity.
 */
class CacheArray
{
  public:
    explicit CacheArray(const CacheParams &params);

    /** @return true and update LRU if @p addr is present. */
    bool access(Addr addr);

    /** @return true if present, without disturbing LRU. */
    bool probe(Addr addr) const;

    /** Insert the line containing @p addr; returns the victim. */
    Eviction insert(Addr addr, bool dirty = false,
                    bool prefetched = false);

    /** Mark the line dirty; @return false if the line is absent. */
    bool setDirty(Addr addr);

    /** @return true if present and dirty. */
    bool isDirty(Addr addr) const;

    /**
     * Test-and-clear the prefetched bit; @return true if the line was
     * present with the bit set (i.e. a useful prefetch).
     */
    bool consumePrefetched(Addr addr);

    /** Remove the line if present. @return true if it was dirty. */
    bool invalidate(Addr addr);

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    /** Ways usable after RAS degradation. */
    unsigned usableWays() const { return usableWays_; }

    /** Count of valid lines (for tests). */
    std::size_t validLines() const;

    /**
     * Invoke @p fn(lineAddr, dirty) for every valid line. Used by the
     * invariant auditor to cross-check coherence state; the traversal
     * does not disturb LRU.
     */
    void forEachValidLine(
        const std::function<void(Addr, bool)> &fn) const;

    /** Write or read tags/LRU (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        std::uint64_t lru = 0;
    };

    unsigned setIndex(Addr addr) const;
    Addr lineTag(Addr addr) const;
    Line *find(Addr addr);
    const Line *find(Addr addr) const;

    unsigned numSets_;
    unsigned assoc_;
    unsigned usableWays_;
    /** log2(line size * sets): the tag is the address shifted by it. */
    unsigned tagShift_ = 0;
    std::uint64_t lruTick_ = 0;
    std::vector<Line> lines_; ///< numSets_ * assoc_, set-major.
};

/**
 * Timed non-blocking cache: tag array + MSHR file of in-flight line
 * fills + statistics. The surrounding hierarchy decides where misses
 * are serviced; TimedCache handles tags, merging, and structural
 * MSHR limits.
 */
class TimedCache
{
  public:
    TimedCache(const CacheParams &params, stats::Group *parent);

    const CacheParams &params() const { return params_; }
    CacheArray &array() { return array_; }
    const CacheArray &array() const { return array_; }

    /**
     * Tag lookup for a demand access at @p cycle.
     * Hit: data ready at cycle + totalLatency().
     * In-flight miss (MSHR merge): ready when the fill lands.
     * New miss: caller must service it and call fill(); the returned
     * ready is the earliest cycle the downstream request can start
     * (after MSHR availability and the tag-probe latency).
     *
     * The only call that drops landed fills from the MSHR file: one
     * pass removes every entry ready at or before @p cycle. Lookup
     * cycles are not monotonic per cache (a TLB walk dates an L1
     * lookup, and a full L1D file an L2 lookup, into the future), so
     * a lookup dated before one that ran earlier cannot merge with a
     * fill that one already dropped.
     */
    struct LookupResult
    {
        bool hit = false;
        bool merged = false;  ///< matched an in-flight fill.
        Cycle ready = 0;
    };
    LookupResult lookup(Addr addr, bool is_write, Cycle cycle);

    /**
     * Record the completion of a miss: install the line and register
     * the fill time in the MSHR so later accesses merge correctly.
     * Closes the line's open miss (sampling its residency) or, for a
     * prefetch, adds an entry; capacity is not checked, so the file
     * may hold more than params().mshrs fills.
     * @return eviction information for writeback handling.
     */
    Eviction fill(Addr addr, Cycle ready, bool dirty,
                  bool prefetched = false);

    /**
     * Record miss-fill spans into @p writer (one track per cache,
     * named after the stat path). Pass nullptr to detach.
     */
    void attachTrace(obs::ChromeTraceWriter *writer);

    /** @return true if a fill for this line lands after @p cycle. */
    bool pending(Addr addr, Cycle cycle) const;

    /** Fills landing after @p cycle (auditor/crash report). */
    std::size_t pendingFillCount(Cycle cycle) const;

    /**
     * Earliest fill landing after @p now, or kCycleNever when none:
     * the skip-ahead kernel's memory bound and the watchdog's event
     * probe (a long-latency stall versus a true deadlock).
     */
    Cycle nextPendingFill(Cycle now) const;

    /**
     * Misses recorded by lookup() whose fill() never arrived. The
     * hierarchy services every miss synchronously, so any nonzero
     * value at drain is a leak.
     */
    std::size_t unpairedMisses() const;

    /** Count a writeback leaving this cache. */
    void noteWriteback() { ++writebacks_; }
    void notePrefetchIssued() { ++prefetchesIssued_; }
    void notePrefetchUseful() { ++prefetchesUseful_; }
    void noteDemandMiss() { ++demandMisses_; }
    void noteDemandAccess() { ++demandAccesses_; }
    void noteInvalidation() { ++invalidations_; }

    /** Correctable errors observed so far. */
    std::uint64_t correctedErrors() const
    {
        return errors_.correctedErrors();
    }

    /** Stats accessors used by experiments. @{ */
    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t demandAccessCount() const
    {
        return demandAccesses_.value();
    }
    std::uint64_t demandMissCount() const
    {
        return demandMisses_.value();
    }
    std::uint64_t prefetchIssuedCount() const
    {
        return prefetchesIssued_.value();
    }
    double missRatio() const;
    double demandMissRatio() const;
    /** @} */

    /**
     * Write or read tags + MSHRs + error-process position (stats
     * travel separately with the whole tree; see
     * stats::Group::checkpoint).
     */
    void checkpoint(ckpt::Archive &ar);

  private:
    /**
     * One MSHR entry, one per line. lookup() opens it at a new miss
     * with ready = kCycleNever; fill() closes it at the fill's ready
     * cycle (a prefetch fill enters closed); the first lookup() at or
     * past ready drops it.
     */
    struct Mshr
    {
        Addr line;
        Cycle missCycle; ///< when the miss was found; used while open.
        Cycle ready;     ///< fill-done cycle; kCycleNever while open.

        /** A fill is on its way and lands after @p cycle. */
        bool landsAfter(Cycle cycle) const
        {
            return ready != kCycleNever && ready > cycle;
        }
    };

    CacheParams params_;
    CacheArray array_;
    std::vector<Mshr> mshrs_; ///< unordered.

    obs::ChromeTraceWriter *trace_ = nullptr;
    unsigned traceTid_ = 0;

    stats::Group statGroup_;
    ErrorProcess errors_;
    stats::Scalar &accesses_;
    stats::Scalar &misses_;
    stats::Scalar &mshrMerges_;
    stats::Scalar &mshrFullStalls_;
    stats::Scalar &writebacks_;
    stats::Scalar &prefetchesIssued_;
    stats::Scalar &prefetchesUseful_;
    stats::Scalar &demandAccesses_;
    stats::Scalar &demandMisses_;
    stats::Scalar &invalidations_;
    stats::Histogram &mshrOccupancy_;
    stats::Distribution &mshrResidency_;
};

} // namespace s64v

#endif // S64V_MEM_CACHE_HH
