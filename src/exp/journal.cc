#include "exp/journal.hh"

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <utility>

#include "ckpt/snapshot.hh"
#include "common/file_util.hh"
#include "common/logging.hh"
#include "model/fingerprint.hh"

namespace s64v::exp
{

bool
journalKeyLess(const JournalEntry &a, const JournalEntry &b)
{
    return a.index != b.index ? a.index < b.index : a.label < b.label;
}

namespace
{

/**
 * The journal's one walk, writing @p entries or reading them back.
 * A read requires the entries in key order once they are all read.
 */
void
walk(ckpt::Archive &ar, std::vector<JournalEntry> &entries)
{
    ar.section("journal");
    ar.layout("journal", kJournalLayout);
    ar.list(entries, [&](JournalEntry &e) {
        ar.u64(e.index);
        ar.str(e.label);
        ar.u64(e.configHash);
        ar.u64(e.workloadHash);
        ar.u64(e.sim.cycles);
        ar.u64(e.sim.instructions);
        ar.u64(e.sim.measured);
        ar.f64(e.sim.ipc);
        ar.boolean(e.sim.hitCycleCap);
        ar.boolean(e.sim.interrupted);
        ar.boolean(e.sim.stoppedAtCheckpoint);
        ar.u64(e.sim.warmupEndCycle);
        ar.list<std::uint32_t>(e.sim.cores, [&](CoreResult &cr) {
            ar.u64(cr.committed);
            ar.u64(cr.measured);
            ar.u64(cr.lastCommitCycle);
            ar.f64(cr.ipc);
        });
        std::vector<std::pair<std::string, double>> metrics(
            e.metrics.begin(), e.metrics.end());
        ar.list<std::uint32_t>(metrics, [&](auto &m) {
            ar.str(m.first);
            ar.f64(m.second);
        });
        if (ar.loading()) {
            for (auto &[name, value] : metrics)
                e.metrics[std::move(name)] = value;
        }
    });
    ar.require(std::adjacent_find(entries.begin(), entries.end(),
                                  [](const JournalEntry &a,
                                     const JournalEntry &b) {
                                      return !journalKeyLess(a, b);
                                  }) == entries.end(),
               "entries out of key order");
    ar.endSections();
}

} // namespace

std::optional<std::vector<JournalEntry>>
readJournal(const std::string &path)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) && !ec)
        return std::vector<JournalEntry>{}; // nothing completed yet.

    std::vector<JournalEntry> entries;
    std::string version;
    try {
        ckpt::SnapshotReader r = ckpt::SnapshotReader::fromFile(path);
        ckpt::Archive ar(r);
        walk(ar, entries);
        version = r.modelVersion();
    } catch (const std::exception &e) {
        warn("journal '%s' is not a journal this build reads (%s); "
             "the sweep runs every point without a journal and "
             "leaves the file alone",
             path.c_str(), e.what());
        return std::nullopt;
    }
    if (version != modelVersionString()) {
        warn("journal '%s' was written by model version '%s' (this "
             "build is '%s'); ignored its %zu entries, which are "
             "replaced as points finish",
             path.c_str(), version.c_str(), modelVersionString(),
             entries.size());
        entries.clear();
    }
    return entries;
}

bool
writeJournal(const std::string &path,
             const std::vector<JournalEntry> &entries, std::string *err)
{
    // The walk takes its entries by reference in both directions.
    std::vector<JournalEntry> copy = entries;
    ckpt::SnapshotWriter w;
    ckpt::Archive ar(w);
    walk(ar, copy);
    const std::vector<std::uint8_t> image =
        w.finish(modelVersionString());
    return atomicWriteFile(
        path,
        std::string_view(reinterpret_cast<const char *>(image.data()),
                         image.size()),
        err);
}

} // namespace s64v::exp
