/**
 * @file
 * Versioned binary snapshot container: the one format for every file
 * the simulator reads back (checkpoints, trace files and sweep
 * journals). A snapshot is a sequence of named sections, each carrying
 * an opaque little-endian payload and an FNV-1a 64 checksum; the file
 * header records a magic, the container format version, the section
 * count and the producing model version string, followed by an
 * FNV-1a 64 checksum over those three fields. Values go in and come
 * back out through one two-way codec, the Archive, so each kind of
 * state lists its fields once for both directions; the reader
 * validates the header, every section checksum, and every bounds
 * check up front or on access, and reports any damage by throwing
 * SnapshotError. It never decides what damage means: the checkpoint
 * and trace readers turn it into a fatal() naming the file, the
 * journal reader into one warning and no journal.
 *
 * Compatibility policy: the format version covers the container
 * framing only and is bumped when the framing changes. Each kind of
 * payload carries its own layout number as the first value of its
 * first section (Archive::layout()), so a change to a checkpoint's
 * state invalidates checkpoints and nothing else.
 */

#ifndef S64V_CKPT_SNAPSHOT_HH
#define S64V_CKPT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
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
 * Builds a snapshot: beginSection(), then the payload through an
 * Archive (or putBytes()), then finish() or writeFile(). Sections are
 * self-contained; the checkpoint opens one per component (e.g.
 * "cpu0", "mem", "stats") so a checksum failure names the damaged
 * unit.
 */
class SnapshotWriter
{
  public:
    void beginSection(const std::string &name);

    /** Append @p len raw bytes to the open section. */
    void putBytes(const void *data, std::size_t len);

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

    std::vector<Section> sections_;
};

/**
 * Parses and validates a snapshot image, then hands sections back to
 * be read through an Archive (or getBytes()). Every malformed
 * condition — unreadable or oversized file, bad magic, header or
 * section checksum mismatch, unknown format version, short file,
 * missing section, read past a section end, trailing unread bytes —
 * throws SnapshotError with a diagnostic naming the section; the
 * caller names the file. The header checksum is verified before the
 * section count sizes anything.
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

    /** Assert the open section was consumed exactly. */
    void closeSection();

    /** Read @p len raw bytes; throws past the open section's end. */
    void getBytes(void *out, std::size_t len);

    /**
     * Unread bytes left in the open section: the bound on anything a
     * reader sizes from a stored length.
     */
    std::size_t remaining() const;

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

    std::vector<std::uint8_t> bytes_;
    std::string modelVersion_;
    std::vector<Section> sections_;
    const Section *open_ = nullptr;
    std::size_t cursor_ = 0; ///< absolute offset into bytes_.
};

/**
 * The one codec between state and a section's payload, built on a
 * writer or a reader. A stateful type lists its state once, in a
 * checkpoint(Archive &) walk: each call writes the variable it is
 * given, or reads into it, so the write and the read cannot drift.
 * Values are little-endian; a double travels as its IEEE-754 bit
 * pattern, so restored statistics are exact.
 *
 * Untrusted bytes never size anything unbounded: str() and u64Vec()
 * bound a stored length by the section's remaining bytes, list()
 * reads its elements one at a time, and every require() names what
 * it refused. Steps that only a restore takes (rebuilding derived
 * state) sit behind loading().
 */
class Archive
{
  public:
    explicit Archive(SnapshotWriter &w) : w_(&w) {}
    explicit Archive(SnapshotReader &r) : r_(&r) {}

    /** True when reading into the walk's variables. */
    bool loading() const { return r_ != nullptr; }

    /**
     * Open section @p name: a write begins it; a read closes the
     * section before it, which must have been consumed exactly, and
     * positions at this one.
     */
    void section(const std::string &name);
    /** A read closes the last section (see section()). */
    void endSections();
    /**
     * The payload's layout number, the first value of its first
     * section: a read refuses any other as "unsupported <kind> layout
     * N (this build reads layout M)".
     */
    void layout(const char *kind, std::uint32_t expected);

    void u8(std::uint8_t &v);
    void u32(std::uint32_t &v);
    void u64(std::uint64_t &v);
    void boolean(bool &v);
    void f64(double &v);
    /** A u32 length and the characters. */
    void str(std::string &s);
    void bytes(void *data, std::size_t len);
    /** A u64 length and the values. */
    void u64Vec(std::vector<std::uint64_t> &v);

    /**
     * A count or name the machine's configuration fixes: written as
     * given, and a read requires the stored one to match (@p what
     * names the mismatch). @{
     */
    void fixed32(std::uint32_t n, const char *what);
    void fixed64(std::uint64_t n, const char *what);
    void tag(const std::string &name, const char *what);
    /** @} */

    /** On a read, refuse the snapshot unless @p cond holds. */
    void require(bool cond, const char *what)
    {
        if (r_)
            r_->require(cond, what);
    }

    /**
     * A length of type @p N, then each element of @p seq through
     * @p each. A read refuses a length above @p max (naming @p what)
     * and then reads the elements one at a time into the cleared
     * @p seq, so a damaged length fails as a short read and never
     * sizes an allocation. On a read, @p each sees a fresh element
     * that joins @p seq once it returns.
     */
    template <typename N = std::uint64_t, typename Seq, typename Fn>
    void list(Seq &seq, Fn &&each,
              std::uint64_t max = ~std::uint64_t{0},
              const char *what = "list longer than its structure")
    {
        std::uint64_t n = seq.size();
        number(n, sizeof(N));
        if (!r_) {
            for (auto &x : seq)
                each(x);
            return;
        }
        require(n <= max, what);
        seq.clear();
        for (; n != 0; --n) {
            typename Seq::value_type x{};
            each(x);
            seq.push_back(std::move(x));
        }
    }

  private:
    /** @p n little-endian bytes of @p v. */
    void number(std::uint64_t &v, unsigned n);

    SnapshotWriter *w_ = nullptr;
    SnapshotReader *r_ = nullptr;
    bool inSection_ = false;
};

} // namespace s64v::ckpt

#endif // S64V_CKPT_SNAPSHOT_HH
