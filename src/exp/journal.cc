#include "exp/journal.hh"

#include <fstream>
#include <utility>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v::exp
{

namespace
{

/** Layout of the "entry" section; bumped on any change to it. */
constexpr std::uint32_t kJournalEntryLayout = 1;

constexpr char kHexDigits[] = "0123456789abcdef";

/** The value of lowercase hex digit @p c, or -1. */
int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

} // namespace

std::string
encodeJournalEntry(const JournalEntry &e)
{
    ckpt::SnapshotWriter w;
    w.beginSection("entry");
    w.putU32(kJournalEntryLayout);
    w.putU64(e.index);
    w.putString(e.label);
    w.putU64(e.configHash);
    w.putU64(e.workloadHash);
    w.putBool(e.status == "ok");
    w.putString(e.error);
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

    const std::vector<std::uint8_t> image = w.finish(e.modelVersion);
    std::string line;
    line.reserve(image.size() * 2);
    for (const std::uint8_t b : image) {
        line.push_back(kHexDigits[b >> 4]);
        line.push_back(kHexDigits[b & 0xf]);
    }
    return line;
}

bool
decodeJournalEntry(std::string_view line, JournalEntry &out)
{
    if (line.size() % 2 != 0)
        return false;
    std::vector<std::uint8_t> image(line.size() / 2);
    for (std::size_t i = 0; i < image.size(); ++i) {
        const int hi = hexValue(line[2 * i]);
        const int lo = hexValue(line[2 * i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        image[i] = static_cast<std::uint8_t>(hi << 4 | lo);
    }

    // Counts are read one element at a time: a damaged one runs into
    // the section end instead of sizing an allocation.
    try {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(std::move(image));
        r.openSection("entry");
        r.checkLayout("journal entry", kJournalEntryLayout);
        JournalEntry e;
        e.modelVersion = r.modelVersion();
        e.index = r.getU64();
        e.label = r.getString();
        e.configHash = r.getU64();
        e.workloadHash = r.getU64();
        e.status = r.getBool() ? "ok" : "failed";
        e.error = r.getString();
        e.sim.cycles = r.getU64();
        e.sim.instructions = r.getU64();
        e.sim.measured = r.getU64();
        e.sim.ipc = r.getDouble();
        e.sim.hitCycleCap = r.getBool();
        e.sim.interrupted = r.getBool();
        e.sim.stoppedAtCheckpoint = r.getBool();
        e.sim.warmupEndCycle = r.getU64();
        for (std::uint32_t n = r.getU32(); n != 0; --n) {
            CoreResult cr;
            cr.committed = r.getU64();
            cr.measured = r.getU64();
            cr.lastCommitCycle = r.getU64();
            cr.ipc = r.getDouble();
            e.sim.cores.push_back(cr);
        }
        for (std::uint32_t n = r.getU32(); n != 0; --n) {
            std::string name = r.getString();
            e.metrics[std::move(name)] = r.getDouble();
        }
        r.closeSection();
        out = std::move(e);
        return true;
    } catch (const ckpt::SnapshotError &) {
        return false;
    }
}

void
RunJournal::append(const JournalEntry &e)
{
    if (!file_.isOpen())
        return;
    std::string line = encodeJournalEntry(e);
    line.push_back('\n');
    std::string err;
    if (!file_.append(line, &err)) {
        warn("journal append to '%s' failed: %s",
             file_.path().c_str(), err.c_str());
    }
}

std::vector<JournalEntry>
RunJournal::load(const std::string &path)
{
    std::vector<JournalEntry> entries;
    std::ifstream in(path);
    if (!in)
        return entries; // absent journal: nothing completed yet.
    std::string line;
    std::size_t lineno = 0;
    bool sawCorrupt = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JournalEntry e;
        if (decodeJournalEntry(line, e)) {
            if (sawCorrupt) {
                // Valid entries after a corrupt line mean interior
                // damage, not a torn tail; say so once per line.
                warn("journal '%s': line %zu was corrupt but later "
                     "lines parse; skipped it",
                     path.c_str(), lineno - 1);
                sawCorrupt = false;
            }
            entries.push_back(std::move(e));
        } else {
            if (sawCorrupt) {
                warn("journal '%s': skipping corrupt line %zu",
                     path.c_str(), lineno - 1);
            }
            sawCorrupt = true; // may be the torn tail; defer verdict.
        }
    }
    // A trailing unparsable line is the expected crash signature
    // (append torn mid-write); skip it without noise.
    return entries;
}

} // namespace s64v::exp
