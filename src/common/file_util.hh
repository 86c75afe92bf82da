/**
 * @file
 * Durable file-writing primitives. Every JSON/JSONL/binary artifact
 * the simulator produces goes through one of these so a run killed at
 * an arbitrary instant never leaves a truncated or interleaved file:
 * atomicWriteFile() stages the content in a temp file in the target
 * directory, fsyncs it, and renames it into place (rename(2) on one
 * filesystem is atomic); AppendFile gives line-granular durability
 * for journals, where each append is written and fsynced as a unit.
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

/**
 * Append-only file handle for line journals: each append() is one
 * write(2) followed by fsync(2), so a crash can truncate at most the
 * line being appended (and only mid-write). Opens with O_APPEND so
 * concurrent appenders from one process interleave at line, not byte,
 * granularity (callers still serialize with a mutex for ordering).
 */
class AppendFile
{
  public:
    AppendFile() = default;
    ~AppendFile();

    AppendFile(const AppendFile &) = delete;
    AppendFile &operator=(const AppendFile &) = delete;

    /** Open (creating if needed) for append. @return success. */
    bool open(const std::string &path, std::string *err = nullptr);

    /** Append @p data and fsync. @return success. */
    bool append(std::string_view data, std::string *err = nullptr);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    void close();

  private:
    int fd_ = -1;
    std::string path_;
};

} // namespace s64v

#endif // S64V_COMMON_FILE_UTIL_HH
