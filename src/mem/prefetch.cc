#include "mem/prefetch.hh"

#include "ckpt/snapshot.hh"
#include "mem/memtypes.hh"

namespace s64v
{

StreamPrefetcher::StreamPrefetcher(const PrefetchParams &params,
                                   const std::string &name,
                                   stats::Group *parent)
    : params_(params), streams_(params.streams),
      candidates_(params.candidates),
      statGroup_(name, parent),
      observations_(statGroup_.scalar("observations",
                                      "demand requests observed")),
      trainings_(statGroup_.scalar("trainings",
                                   "streams reaching confidence")),
      candidatesStat_(statGroup_.scalar("candidates",
                                        "prefetch lines proposed"))
{
}

void
StreamPrefetcher::observe(Addr addr, std::vector<Addr> &out)
{
    if (!params_.enabled || streams_.empty())
        return;
    ++observations_;

    const Addr line = addr / kLineSize;

    // 1. Established streams: advance and fire.
    for (Stream &s : streams_) {
        if (!s.valid)
            continue;
        if (line == s.nextLine || line == s.nextLine + 1) {
            s.nextLine = line + 1;
            s.lru = ++lruTick_;
            if (s.confidence < params_.trainThreshold)
                ++s.confidence;
            for (unsigned d = 0; d < params_.degree; ++d) {
                out.push_back((line + 1 + d) * kLineSize);
                ++candidatesStat_;
            }
            return;
        }
    }

    // 2. Candidate filter: a sequential successor promotes the
    // candidate to a real stream.
    for (Stream &c : candidates_) {
        if (!c.valid)
            continue;
        if (line == c.nextLine || line == c.nextLine + 1) {
            c.valid = false;
            Stream *victim = &streams_[0];
            for (Stream &s : streams_) {
                if (!s.valid) {
                    victim = &s;
                    break;
                }
                if (s.lru < victim->lru)
                    victim = &s;
            }
            victim->valid = true;
            victim->nextLine = line + 1;
            victim->confidence = params_.trainThreshold;
            victim->lru = ++lruTick_;
            ++trainings_;
            for (unsigned d = 0; d < params_.degree; ++d) {
                out.push_back((line + 1 + d) * kLineSize);
                ++candidatesStat_;
            }
            return;
        }
    }

    // 3. Unknown address: allocate a candidate only.
    if (candidates_.empty())
        return;
    Stream *victim = &candidates_[0];
    for (Stream &c : candidates_) {
        if (!c.valid) {
            victim = &c;
            break;
        }
        if (c.lru < victim->lru)
            victim = &c;
    }
    victim->valid = true;
    victim->nextLine = line + 1;
    victim->confidence = 1;
    victim->lru = ++lruTick_;
}


void
StreamPrefetcher::checkpointTable(ckpt::Archive &ar,
                                  std::vector<Stream> &t)
{
    ar.fixed64(t.size(), "prefetcher table size differs");
    for (Stream &s : t) {
        ar.u64(s.nextLine);
        ar.u32(s.confidence);
        ar.u64(s.lru);
        ar.boolean(s.valid);
    }
}

void
StreamPrefetcher::checkpoint(ckpt::Archive &ar)
{
    ar.u64(lruTick_);
    checkpointTable(ar, streams_);
    checkpointTable(ar, candidates_);
}

} // namespace s64v
