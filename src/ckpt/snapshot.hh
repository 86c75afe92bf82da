/**
 * @file
 * Versioned binary snapshot container: the one format for every file
 * the simulator reads back (checkpoints, trace files and sweep
 * journals). A snapshot is a sequence of named sections, each carrying
 * an opaque little-endian payload and an FNV-1a 64 checksum; the file
 * header records a magic, the container format version, the section
 * count and the producing model version string, followed by an
 * FNV-1a 64 checksum over those three fields. Writers fill sections
 * with the typed put* API and readers read them back in the same
 * order; the reader validates the header, every section checksum,
 * and every bounds check up front or on access, and reports any
 * damage by throwing SnapshotError. It never decides what damage
 * means: the checkpoint and trace readers turn it into a fatal()
 * naming the file, the journal reader into one warning and no
 * journal.
 *
 * Compatibility policy: the format version covers the container
 * framing only and is bumped when the framing changes. Each kind of
 * payload carries its own layout number as the first value of its
 * first section (checkLayout()), so a change to a checkpoint's state
 * invalidates checkpoints and nothing else.
 */

#ifndef S64V_CKPT_SNAPSHOT_HH
#define S64V_CKPT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace s64v::ckpt
{

/** FNV-1a 64-bit, the per-section checksum function. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/**
 * Container format version (2: header checksum; 3: one MSHR list per
 * cache; 4: no completed-load list in the LSQ; 5: payload layouts
 * versioned per kind, the version covers the framing only).
 */
constexpr std::uint32_t kSnapshotFormatVersion = 5;

/** Damage found by SnapshotReader; the message names no file. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Builds a snapshot: beginSection()/put*()/.../writeFile(). Sections
 * are self-contained; the checkpoint opens one per component (e.g.
 * "cpu0", "mem", "stats") so a checksum failure names the damaged
 * unit.
 */
class SnapshotWriter
{
  public:
    void beginSection(const std::string &name);

    void putU8(std::uint8_t v) { putRaw(&v, 1); }
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v)
    {
        putU64(static_cast<std::uint64_t>(v));
    }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** Doubles are stored as their IEEE-754 bit pattern: exact. */
    void putDouble(double v);
    void putString(const std::string &s);
    void putBytes(const void *data, std::size_t len);
    void putU64Vec(const std::vector<std::uint64_t> &v);

    /** Serialize header + all sections into one image. */
    std::vector<std::uint8_t> finish(
        const std::string &model_version) const;

    /**
     * finish() + atomic write to @p path. Fails via fatal() on I/O
     * errors.
     */
    void writeFile(const std::string &path,
                   const std::string &model_version) const;

  private:
    struct Section
    {
        std::string name;
        std::vector<std::uint8_t> data;
    };

    void putRaw(const void *data, std::size_t len);

    std::vector<Section> sections_;
};

/**
 * Parses and validates a snapshot image, then hands sections back for
 * typed reads. Every malformed condition — unreadable or oversized
 * file, bad magic, header or section checksum mismatch, unknown
 * format version, short file, missing section, read past a section
 * end, trailing unread bytes — throws SnapshotError with a diagnostic
 * naming the section; the caller names the file. The header checksum
 * is verified before the section count sizes anything.
 */
class SnapshotReader
{
  public:
    /** mmap-free whole-file load (at most 1 GiB) + full validation. */
    static SnapshotReader fromFile(const std::string &path);

    /** Validate an in-memory image. */
    static SnapshotReader fromBytes(std::vector<std::uint8_t> bytes);

    const std::string &modelVersion() const { return modelVersion_; }

    bool hasSection(const std::string &name) const;

    /** Position the cursor at @p name's payload; throws if missing. */
    void openSection(const std::string &name);

    /**
     * Read the open section's payload layout number and throw
     * "unsupported <kind> layout N (this build reads layout M)"
     * unless it is @p expected.
     */
    void checkLayout(const char *kind, std::uint32_t expected);

    /** Assert the open section was consumed exactly. */
    void closeSection();

    std::uint8_t getU8();
    std::uint16_t getU16();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64()
    {
        return static_cast<std::int64_t>(getU64());
    }
    bool getBool() { return getU8() != 0; }
    double getDouble();
    std::string getString();
    void getBytes(void *out, std::size_t len);
    std::vector<std::uint64_t> getU64Vec();

    /**
     * Restore-side validation helper: throw (naming the open section)
     * unless @p cond holds. Components use it to reject snapshots
     * whose recorded shapes disagree with the configured machine.
     */
    void require(bool cond, const char *what);

    /** Throw SnapshotError for @p what, naming the open section. */
    [[noreturn]] void corrupt(const std::string &what) const;

  private:
    struct Section
    {
        std::string name;
        std::size_t offset = 0; ///< payload start in bytes_.
        std::size_t size = 0;
    };

    SnapshotReader() = default;
    void parse();
    void getRaw(void *out, std::size_t len);

    std::vector<std::uint8_t> bytes_;
    std::string modelVersion_;
    std::vector<Section> sections_;
    const Section *open_ = nullptr;
    std::size_t cursor_ = 0; ///< absolute offset into bytes_.
};

} // namespace s64v::ckpt

#endif // S64V_CKPT_SNAPSHOT_HH
