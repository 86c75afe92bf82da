/**
 * @file
 * Write-ahead run journal for sweeps: one line per point run,
 * appended and fsynced before the in-memory result is merged, so a
 * killed sweep loses at most the points that were still running. Each
 * entry is keyed on the point's position plus hashes of its machine
 * configuration, its workload, and the producing model version;
 * --resume replays a journal against the *current* sweep and only
 * honours entries whose keys still match, so an edited sweep re-runs
 * instead of mixing stale results.
 *
 * A line is the lowercase hex of a snapshot-container image
 * (ckpt/snapshot.hh) with one "entry" section, so every entry is
 * checksummed and decoded by the one container reader. Doubles (IPC,
 * metrics) are stored as their IEEE-754 bit patterns so a resumed
 * sweep's merged results are bit-identical to an uninterrupted run's,
 * not merely close.
 */

#ifndef S64V_EXP_JOURNAL_HH
#define S64V_EXP_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_util.hh"
#include "sim/system.hh"

namespace s64v::exp
{

/** One journal record: the durable outcome of one point run. */
struct JournalEntry
{
    std::uint64_t index = 0;    ///< point position within the sweep.
    std::string label;
    std::uint64_t configHash = 0;   ///< effective-machine fingerprint.
    std::uint64_t workloadHash = 0; ///< profile + instrs fingerprint.
    std::string modelVersion;       ///< producing model version.
    std::string status;             ///< "ok" or "failed".
    std::string error;              ///< diagnostic when "failed".
    SimResult sim;                  ///< meaningful when "ok".
    std::map<std::string, double> metrics;
};

/** Render @p e as one journal line (no trailing newline). */
std::string encodeJournalEntry(const JournalEntry &e);

/**
 * Decode one journal line. @return false on any damage (torn tail,
 * corrupt interior, a non-hex character, a failed checksum, another
 * layout) — the caller skips the line; a journal is advisory, never
 * trusted blindly. Never calls fatal(), so no error hook runs.
 */
bool decodeJournalEntry(std::string_view line, JournalEntry &out);

/** Append-side handle. Each append is fsynced as one line. */
class RunJournal
{
  public:
    /**
     * Open @p path for appending (created if absent; an existing
     * journal grows, which is what --resume wants). @return success.
     */
    bool open(const std::string &path, std::string *err = nullptr)
    {
        return file_.open(path, err);
    }

    bool isOpen() const { return file_.isOpen(); }
    const std::string &path() const { return file_.path(); }

    /**
     * Append one entry. I/O failures warn and continue — losing
     * durability must not kill the sweep itself.
     */
    void append(const JournalEntry &e);

    /**
     * Load every well-formed entry of @p path, in file order. A
     * missing file is an empty journal; a torn final line is the
     * normal crash signature and is skipped silently; a corrupt
     * interior line is skipped with a warning naming the line number.
     */
    static std::vector<JournalEntry> load(const std::string &path);

  private:
    AppendFile file_;
};

} // namespace s64v::exp

#endif // S64V_EXP_JOURNAL_HH
