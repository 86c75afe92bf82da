#include "mem/cache.hh"

#include <algorithm>
#include <cstdio>

#include "chaos/seeded_bug.hh"
#include "ckpt/snapshot.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "obs/chrome_trace.hh"

namespace s64v
{

CacheArray::CacheArray(const CacheParams &params)
    : numSets_(params.numSets()), assoc_(params.assoc),
      usableWays_(params.assoc - params.ras.degradedWays)
{
    if (assoc_ == 0)
        fatal("cache '%s': zero associativity", params.name.c_str());
    if (params.ras.degradedWays >= assoc_)
        fatal("cache '%s': cannot degrade %u of %u ways",
              params.name.c_str(), params.ras.degradedWays, assoc_);
    if (params.sizeBytes %
            (static_cast<std::uint64_t>(kLineSize) * assoc_) != 0 ||
        numSets_ == 0 || !isPowerOf2(numSets_)) {
        fatal("cache '%s': size %llu is not a power-of-two set count "
              "of %u-way 64-B lines", params.name.c_str(),
              static_cast<unsigned long long>(params.sizeBytes),
              assoc_);
    }
    tagShift_ = floorLog2(kLineSize) + floorLog2(numSets_);
    lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
}

unsigned
CacheArray::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / kLineSize) & (numSets_ - 1));
}

Addr
CacheArray::lineTag(Addr addr) const
{
    return addr >> tagShift_;
}

CacheArray::Line *
CacheArray::find(Addr addr)
{
    const unsigned set = setIndex(addr);
    const Addr tag = lineTag(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < usableWays_; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::find(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr);
}

bool
CacheArray::access(Addr addr)
{
    Line *line = find(addr);
    if (!line)
        return false;
    line->lru = ++lruTick_;
    return true;
}

bool
CacheArray::probe(Addr addr) const
{
    return find(addr) != nullptr;
}

Eviction
CacheArray::insert(Addr addr, bool dirty, bool prefetched)
{
    Eviction ev;
    const unsigned set = setIndex(addr);
    const Addr tag = lineTag(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * assoc_];

    // Reuse an existing copy or an invalid (usable) way first.
    Line *victim = nullptr;
    for (unsigned w = 0; w < usableWays_; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            victim = &base[w];
            ev.valid = false;
            break;
        }
        if (!base[w].valid && !victim)
            victim = &base[w];
    }
    if (!victim) {
        victim = base;
        for (unsigned w = 1; w < usableWays_; ++w) {
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        ev.valid = true;
        ev.dirty = victim->dirty;
        ev.lineAddr = (victim->tag * numSets_ + set) * kLineSize;
    }

    victim->tag = tag;
    victim->valid = true;
    victim->dirty = dirty;
    victim->prefetched = prefetched;
    victim->lru = ++lruTick_;
    return ev;
}

bool
CacheArray::setDirty(Addr addr)
{
    Line *line = find(addr);
    if (!line)
        return false;
    line->dirty = true;
    return true;
}

bool
CacheArray::isDirty(Addr addr) const
{
    const Line *line = find(addr);
    return line && line->dirty;
}

bool
CacheArray::consumePrefetched(Addr addr)
{
    Line *line = find(addr);
    if (!line || !line->prefetched)
        return false;
    line->prefetched = false;
    return true;
}

bool
CacheArray::invalidate(Addr addr)
{
    Line *line = find(addr);
    if (!line)
        return false;
    const bool was_dirty = line->dirty;
    line->valid = false;
    line->dirty = false;
    line->prefetched = false;
    return was_dirty;
}

void
CacheArray::forEachValidLine(
    const std::function<void(Addr, bool)> &fn) const
{
    for (unsigned set = 0; set < numSets_; ++set) {
        const Line *base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid) {
                fn((base[w].tag * numSets_ + set) * kLineSize,
                   base[w].dirty);
            }
        }
    }
}

TimedCache::TimedCache(const CacheParams &params, stats::Group *parent)
    : params_(params), array_(params),
      statGroup_(params.name, parent),
      errors_(params.ras, "ras", &statGroup_),
      accesses_(statGroup_.scalar("accesses", "tag lookups")),
      misses_(statGroup_.scalar("misses", "lookups that missed")),
      mshrMerges_(statGroup_.scalar("mshr_merges",
                                    "misses merged into in-flight "
                                    "fills")),
      mshrFullStalls_(statGroup_.scalar("mshr_full",
                                        "misses delayed by MSHR "
                                        "exhaustion")),
      writebacks_(statGroup_.scalar("writebacks",
                                    "dirty lines written back")),
      prefetchesIssued_(statGroup_.scalar("prefetches",
                                          "prefetch fills issued")),
      prefetchesUseful_(statGroup_.scalar("prefetches_useful",
                                          "prefetched lines hit by "
                                          "demand requests")),
      demandAccesses_(statGroup_.scalar("demand_accesses",
                                        "accesses excluding "
                                        "prefetches")),
      demandMisses_(statGroup_.scalar("demand_misses",
                                      "misses excluding prefetches")),
      invalidations_(statGroup_.scalar("invalidations",
                                       "lines invalidated by "
                                       "coherence")),
      mshrOccupancy_(statGroup_.histogram(
          "mshr_occupancy", "in-flight fills, sampled per lookup",
          0.0, static_cast<double>(params.mshrs) + 1.0,
          params.mshrs + 1)),
      mshrResidency_(statGroup_.distribution(
          "mshr_residency", "cycles a miss held its MSHR"))
{
    statGroup_.formula("miss_ratio", "misses / accesses",
                       [this] { return missRatio(); });
}

void
TimedCache::attachTrace(obs::ChromeTraceWriter *writer)
{
    trace_ = writer;
    if (trace_) {
        traceTid_ = trace_->track(obs::ChromeTraceWriter::kMemPid,
                                  statGroup_.path());
    }
}

TimedCache::LookupResult
TimedCache::lookup(Addr addr, bool is_write, Cycle cycle)
{
    ++accesses_;
    LookupResult res;
    const Addr line = alignDown(addr, kLineSize);

    // One pass over the MSHR file: drop the fills landed by now, find
    // this line's entry, and keep the earliest remaining fill for the
    // MSHR-full delay.
    Mshr *own = nullptr;
    Cycle earliest = kCycleNever;
    for (std::size_t i = 0; i < mshrs_.size();) {
        Mshr &m = mshrs_[i];
        if (m.ready <= cycle) {
            m = mshrs_.back();
            mshrs_.pop_back();
            continue;
        }
        if (m.line == line)
            own = &m;
        earliest = std::min(earliest, m.ready);
        ++i;
    }
    mshrOccupancy_.sample(static_cast<double>(mshrs_.size()));

    // A line whose fill is still in flight sits in the tag array
    // already (fill() installs eagerly); such accesses merge with the
    // outstanding MSHR rather than hitting.
    if (own && own->ready != kCycleNever) {
        ++misses_;
        ++mshrMerges_;
        if (is_write)
            array_.setDirty(addr);
        res.merged = true;
        res.ready = own->ready;
        return res;
    }

    const unsigned ecc_penalty = errors_.onAccess();

    if (array_.access(addr)) {
        if (array_.consumePrefetched(addr))
            notePrefetchUseful();
        if (is_write)
            array_.setDirty(addr);
        res.hit = true;
        res.ready = cycle + params_.totalLatency() + ecc_penalty;
        return res;
    }

    ++misses_;
    // Deliberately seeded defect (chaos/seeded_bug.hh): double-count
    // misses in large caches. Stats-only — timing is untouched — so
    // it breaks exactly one metamorphic invariant (growing a cache
    // must not increase its miss count) and nothing else; the chaos
    // campaign must detect it and shrink it to a minimal reproducer.
    if (chaos::seededBugArmed() &&
        params_.sizeBytes >= (std::uint64_t{8} << 20))
        ++misses_;
    // New miss: the downstream request can start after the tag probe
    // (tags are on-chip even for the off-chip L2 design), subject to
    // MSHR availability.
    Cycle start = cycle + params_.latency + ecc_penalty;
    if (mshrs_.size() >= params_.mshrs) {
        ++mshrFullStalls_;
        start = std::max(start, earliest);
    }
    if (own)
        own->missCycle = cycle; // re-missed before its fill.
    else
        mshrs_.push_back({line, cycle, kCycleNever});
    res.ready = start;
    return res;
}

Eviction
TimedCache::fill(Addr addr, Cycle ready, bool dirty, bool prefetched)
{
    const Addr line = alignDown(addr, kLineSize);
    const auto it =
        std::find_if(mshrs_.begin(), mshrs_.end(),
                     [line](const Mshr &m) { return m.line == line; });
    if (it == mshrs_.end()) {
        mshrs_.push_back({line, ready, ready});
    } else {
        if (it->ready == kCycleNever) {
            const Cycle start = it->missCycle;
            if (ready > start)
                mshrResidency_.sample(
                    static_cast<double>(ready - start));
            if (trace_) {
                char name[40];
                std::snprintf(name, sizeof(name), "miss 0x%llx",
                              static_cast<unsigned long long>(line));
                trace_->span(obs::ChromeTraceWriter::kMemPid,
                             traceTid_, name, "mem", start, ready);
            }
        }
        it->ready = ready;
    }
    return array_.insert(addr, dirty, prefetched);
}

bool
TimedCache::pending(Addr addr, Cycle cycle) const
{
    const Addr line = alignDown(addr, kLineSize);
    return std::any_of(mshrs_.begin(), mshrs_.end(),
                       [line, cycle](const Mshr &m) {
                           return m.line == line && m.landsAfter(cycle);
                       });
}

std::size_t
TimedCache::pendingFillCount(Cycle cycle) const
{
    return static_cast<std::size_t>(
        std::count_if(mshrs_.begin(), mshrs_.end(),
                      [cycle](const Mshr &m) {
                          return m.landsAfter(cycle);
                      }));
}

Cycle
TimedCache::nextPendingFill(Cycle now) const
{
    Cycle earliest = kCycleNever;
    for (const Mshr &m : mshrs_)
        if (m.ready > now && m.ready < earliest)
            earliest = m.ready;
    return earliest;
}

std::size_t
TimedCache::unpairedMisses() const
{
    return static_cast<std::size_t>(
        std::count_if(mshrs_.begin(), mshrs_.end(), [](const Mshr &m) {
            return m.ready == kCycleNever;
        }));
}

double
TimedCache::missRatio() const
{
    const std::uint64_t a = accesses_.value();
    return a ? static_cast<double>(misses_.value()) / a : 0.0;
}

double
TimedCache::demandMissRatio() const
{
    const std::uint64_t a = demandAccesses_.value();
    return a ? static_cast<double>(demandMisses_.value()) / a : 0.0;
}

void
CacheArray::checkpoint(ckpt::Archive &ar)
{
    ar.u64(lruTick_);
    ar.fixed64(lines_.size(), "cache geometry differs (sets*ways)");
    for (Line &l : lines_) {
        ar.u64(l.tag);
        auto flags = static_cast<std::uint8_t>((l.valid ? 1 : 0) |
                                               (l.dirty ? 2 : 0) |
                                               (l.prefetched ? 4 : 0));
        ar.u8(flags);
        l.valid = (flags & 1) != 0;
        l.dirty = (flags & 2) != 0;
        l.prefetched = (flags & 4) != 0;
        ar.u64(l.lru);
    }
}

void
TimedCache::checkpoint(ckpt::Archive &ar)
{
    array_.checkpoint(ar);
    ar.list(mshrs_, [&](Mshr &m) {
        ar.u64(m.line);
        ar.u64(m.missCycle);
        ar.u64(m.ready);
    });
    errors_.checkpoint(ar);
}

} // namespace s64v
