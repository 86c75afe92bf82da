/**
 * @file
 * The durable file-writing primitive. Every artifact the simulator
 * writes whole (stats JSON, Chrome traces, pipeline views, crash and
 * chaos reports, checkpoints, trace files, the sweep journal) goes
 * through atomicWriteFile() so a run killed at an arbitrary instant
 * never leaves a truncated file: it stages the content in a temp file
 * in the target directory, fsyncs it, and renames it into place
 * (rename(2) on one filesystem is atomic). The interval-sample stream
 * is the one file written as the run goes.
 */

#ifndef S64V_COMMON_FILE_UTIL_HH
#define S64V_COMMON_FILE_UTIL_HH

#include <string>
#include <string_view>

namespace s64v
{

/**
 * Write @p data to @p path atomically: temp file + fsync + rename.
 * Readers never observe a partial file — they see either the old
 * content or the new content. @return false (with the reason in
 * @p err if non-null) on any I/O failure; the target is untouched
 * and the temp file removed.
 */
bool atomicWriteFile(const std::string &path, std::string_view data,
                     std::string *err = nullptr);

} // namespace s64v

#endif // S64V_COMMON_FILE_UTIL_HH
