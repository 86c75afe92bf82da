/**
 * @file
 * Run journal for sweeps: the durable outcome of every point that
 * finished ok, so a killed sweep loses at most the points that were
 * still running. The journal is one snapshot-container image
 * (ckpt/snapshot.hh) with one "journal" section: its layout number,
 * the entry count, then the entries in key order. SweepRunner
 * rewrites the whole file atomically (temp file, fsync, rename) each
 * time a point finishes ok, before the result is merged, so a reader
 * sees either the previous journal or the next one, never a torn one.
 *
 * An entry is keyed on its point's (index, label) and carries hashes
 * of the point's effective machine and of its workload; the producing
 * model version is the image header's. --resume replays a journal
 * against the *current* sweep and only honours entries whose hashes
 * still match, so an edited sweep re-runs instead of mixing stale
 * results. Doubles (IPC, metrics) are stored as their IEEE-754 bit
 * patterns so a resumed sweep's merged results are bit-identical to
 * an uninterrupted run's, not merely close.
 */

#ifndef S64V_EXP_JOURNAL_HH
#define S64V_EXP_JOURNAL_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace s64v::exp
{

/** Layout of the "journal" section; bumped on any change to it. */
constexpr std::uint32_t kJournalLayout = 1;

/** One journal record: the outcome of one point that finished ok. */
struct JournalEntry
{
    std::uint64_t index = 0;    ///< point position within the sweep.
    std::string label;
    std::uint64_t configHash = 0;   ///< effective-machine fingerprint.
    std::uint64_t workloadHash = 0; ///< profile + instrs fingerprint.
    SimResult sim;
    std::map<std::string, double> metrics;
};

/** Strict key order: by index, then by label. */
bool journalKeyLess(const JournalEntry &a, const JournalEntry &b);

/**
 * Read the journal at @p path. An absent file has no entries. A file
 * this build does not read as a journal — bad magic, any damage,
 * another layout, entries out of key order — warns once, naming the
 * file and the reason, and @return nullopt: the caller must leave
 * that file alone. A journal written by another model version warns
 * once and @return no entries, so its entries are replaced. Throws
 * nothing and never calls fatal(), so no error hook runs.
 */
std::optional<std::vector<JournalEntry>> readJournal(
    const std::string &path);

/**
 * Write @p entries, which must be in key order, to @p path as one
 * image, atomically. @return false with the reason in @p err if
 * non-null; the file is then untouched.
 */
bool writeJournal(const std::string &path,
                  const std::vector<JournalEntry> &entries,
                  std::string *err = nullptr);

} // namespace s64v::exp

#endif // S64V_EXP_JOURNAL_HH
