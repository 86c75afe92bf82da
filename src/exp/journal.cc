#include "exp/journal.hh"

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

std::optional<std::vector<JournalEntry>>
readJournal(const std::string &path)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) && !ec)
        return std::vector<JournalEntry>{}; // nothing completed yet.

    // Counts are read one element at a time: a damaged one runs into
    // the section end instead of sizing an allocation.
    std::vector<JournalEntry> entries;
    std::string version;
    try {
        ckpt::SnapshotReader r = ckpt::SnapshotReader::fromFile(path);
        r.openSection("journal");
        r.checkLayout("journal", kJournalLayout);
        for (std::uint64_t n = r.getU64(); n != 0; --n) {
            JournalEntry e;
            e.index = r.getU64();
            e.label = r.getString();
            e.configHash = r.getU64();
            e.workloadHash = r.getU64();
            e.sim.cycles = r.getU64();
            e.sim.instructions = r.getU64();
            e.sim.measured = r.getU64();
            e.sim.ipc = r.getDouble();
            e.sim.hitCycleCap = r.getBool();
            e.sim.interrupted = r.getBool();
            e.sim.stoppedAtCheckpoint = r.getBool();
            e.sim.warmupEndCycle = r.getU64();
            for (std::uint32_t c = r.getU32(); c != 0; --c) {
                CoreResult cr;
                cr.committed = r.getU64();
                cr.measured = r.getU64();
                cr.lastCommitCycle = r.getU64();
                cr.ipc = r.getDouble();
                e.sim.cores.push_back(cr);
            }
            for (std::uint32_t m = r.getU32(); m != 0; --m) {
                std::string name = r.getString();
                e.metrics[std::move(name)] = r.getDouble();
            }
            r.require(entries.empty() ||
                          journalKeyLess(entries.back(), e),
                      "entries out of key order");
            entries.push_back(std::move(e));
        }
        r.closeSection();
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
    ckpt::SnapshotWriter w;
    w.beginSection("journal");
    w.putU32(kJournalLayout);
    w.putU64(entries.size());
    for (const JournalEntry &e : entries) {
        w.putU64(e.index);
        w.putString(e.label);
        w.putU64(e.configHash);
        w.putU64(e.workloadHash);
        w.putU64(e.sim.cycles);
        w.putU64(e.sim.instructions);
        w.putU64(e.sim.measured);
        w.putDouble(e.sim.ipc);
        w.putBool(e.sim.hitCycleCap);
        w.putBool(e.sim.interrupted);
        w.putBool(e.sim.stoppedAtCheckpoint);
        w.putU64(e.sim.warmupEndCycle);
        w.putU32(static_cast<std::uint32_t>(e.sim.cores.size()));
        for (const CoreResult &cr : e.sim.cores) {
            w.putU64(cr.committed);
            w.putU64(cr.measured);
            w.putU64(cr.lastCommitCycle);
            w.putDouble(cr.ipc);
        }
        w.putU32(static_cast<std::uint32_t>(e.metrics.size()));
        for (const auto &[name, value] : e.metrics) {
            w.putString(name);
            w.putDouble(value);
        }
    }
    const std::vector<std::uint8_t> image =
        w.finish(modelVersionString());
    return atomicWriteFile(
        path,
        std::string_view(reinterpret_cast<const char *>(image.data()),
                         image.size()),
        err);
}

} // namespace s64v::exp
