#include "ckpt/snapshot.hh"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/file_util.hh"
#include "common/logging.hh"

namespace s64v::ckpt
{

namespace
{

constexpr char kMagic[8] = {'S', '6', '4', 'V', 'C', 'K', 'P', 'T'};

/** Snapshots are not archives; cap what we load (traces included). */
constexpr std::size_t kMaxSnapshotBytes = 1ull << 30;

void
appendLe(std::vector<std::uint8_t> &out, std::uint64_t v,
         unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
appendString(std::vector<std::uint8_t> &out, const std::string &s)
{
    appendLe(out, s.size(), 4);
    out.insert(out.end(), s.begin(), s.end());
}

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
SnapshotWriter::beginSection(const std::string &name)
{
    for (const Section &s : sections_) {
        if (s.name == name)
            panic("snapshot: duplicate section '%s'", name.c_str());
    }
    sections_.push_back(Section{name, {}});
}

void
SnapshotWriter::putBytes(const void *data, std::size_t len)
{
    if (sections_.empty())
        panic("snapshot: put outside any section");
    const auto *p = static_cast<const std::uint8_t *>(data);
    auto &buf = sections_.back().data;
    buf.insert(buf.end(), p, p + len);
}

std::vector<std::uint8_t>
SnapshotWriter::finish(const std::string &model_version) const
{
    std::vector<std::uint8_t> out;
    for (const char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    appendLe(out, kSnapshotFormatVersion, 4);
    appendLe(out, sections_.size(), 4);
    appendString(out, model_version);
    appendLe(out,
             fnv1a(out.data() + sizeof(kMagic),
                   out.size() - sizeof(kMagic)),
             8);
    for (const Section &s : sections_) {
        appendString(out, s.name);
        appendLe(out, s.data.size(), 8);
        out.insert(out.end(), s.data.begin(), s.data.end());
        appendLe(out, fnv1a(s.data.data(), s.data.size()), 8);
    }
    return out;
}

void
SnapshotWriter::writeFile(const std::string &path,
                          const std::string &model_version) const
{
    const std::vector<std::uint8_t> image = finish(model_version);
    std::string err;
    if (!atomicWriteFile(
            path,
            std::string_view(
                reinterpret_cast<const char *>(image.data()),
                image.size()),
            &err)) {
        fatal("cannot write '%s': %s", path.c_str(), err.c_str());
    }
}

SnapshotReader
SnapshotReader::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw SnapshotError("cannot open");
    const std::streamoff size = in.tellg();
    if (size < 0 ||
        static_cast<std::size_t>(size) > kMaxSnapshotBytes) {
        throw SnapshotError("implausible size " + std::to_string(size) +
                            " bytes (the load cap is 1 GiB)");
    }
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    in.seekg(0);
    if (!bytes.empty() &&
        !in.read(reinterpret_cast<char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
        throw SnapshotError("short read");
    }
    return fromBytes(std::move(bytes));
}

SnapshotReader
SnapshotReader::fromBytes(std::vector<std::uint8_t> bytes)
{
    SnapshotReader r;
    r.bytes_ = std::move(bytes);
    r.parse();
    return r;
}

void
SnapshotReader::corrupt(const std::string &what) const
{
    if (open_)
        throw SnapshotError(what + " (section '" + open_->name + "')");
    throw SnapshotError(what);
}

void
SnapshotReader::parse()
{
    open_ = nullptr;
    cursor_ = 0;

    auto need = [&](std::size_t n, const char *what) {
        if (bytes_.size() - cursor_ < n)
            corrupt(std::string("truncated (") + what + ")");
    };
    auto readLe = [&](unsigned n) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(bytes_[cursor_ + i])
                 << (8 * i);
        cursor_ += n;
        return v;
    };
    auto readString = [&](const char *what) {
        need(4, what);
        const std::size_t len =
            static_cast<std::size_t>(readLe(4));
        need(len, what);
        std::string s(
            reinterpret_cast<const char *>(bytes_.data() + cursor_),
            len);
        cursor_ += len;
        return s;
    };

    need(sizeof(kMagic), "magic");
    if (std::memcmp(bytes_.data(), kMagic, sizeof(kMagic)) != 0)
        corrupt("bad magic (not a snapshot container)");
    cursor_ += sizeof(kMagic);

    // Format version, section count and model version, then their
    // checksum. A damaged length field must be reported like any
    // other damaged header byte, so it is bounded before use.
    const std::size_t header = cursor_;
    need(12, "header");
    const std::uint32_t format = static_cast<std::uint32_t>(readLe(4));
    const std::size_t count = static_cast<std::size_t>(readLe(4));
    const std::size_t len = static_cast<std::size_t>(readLe(4));
    bool intact = false;
    if (bytes_.size() - cursor_ >= len &&
        bytes_.size() - cursor_ - len >= 8) {
        modelVersion_.assign(
            reinterpret_cast<const char *>(bytes_.data() + cursor_),
            len);
        cursor_ += len;
        const std::uint64_t computed =
            fnv1a(bytes_.data() + header, cursor_ - header);
        intact = readLe(8) == computed;
    }
    if (!intact) {
        std::string what = "header checksum mismatch (format version, "
                           "section count or model version damaged, "
                           "or the file is truncated)";
        if (format != kSnapshotFormatVersion) {
            what += "; the header claims format version " +
                std::to_string(format) + ", this build reads version " +
                std::to_string(kSnapshotFormatVersion);
        }
        corrupt(what);
    }
    if (format != kSnapshotFormatVersion) {
        corrupt("unsupported format version " + std::to_string(format) +
                " (this build reads version " +
                std::to_string(kSnapshotFormatVersion) + ")");
    }

    // A checksummed count can still be crafted: bound it by what the
    // remaining bytes can hold before reserving. The smallest section
    // is 20 bytes (4-byte name length, 8-byte size, 8-byte checksum).
    constexpr std::size_t kMinSectionBytes = 20;
    const std::size_t remaining = bytes_.size() - cursor_;
    if (count > remaining / kMinSectionBytes) {
        corrupt("section count " + std::to_string(count) +
                " exceeds what the remaining " +
                std::to_string(remaining) + " bytes can hold");
    }
    sections_.clear();
    sections_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Section s;
        s.name = readString("section name");
        need(8, "section size");
        const std::uint64_t size = readLe(8);
        if (size > bytes_.size() - cursor_)
            corrupt("truncated payload of section '" + s.name + "'");
        s.offset = cursor_;
        s.size = static_cast<std::size_t>(size);
        cursor_ += s.size;
        need(8, "section checksum");
        const std::uint64_t stored = readLe(8);
        const std::uint64_t computed =
            fnv1a(bytes_.data() + s.offset, s.size);
        if (stored != computed) {
            corrupt("checksum mismatch in section '" + s.name +
                    "' (snapshot is damaged)");
        }
        for (const Section &prev : sections_) {
            if (prev.name == s.name)
                corrupt("duplicate section '" + s.name + "'");
        }
        sections_.push_back(std::move(s));
    }
    if (cursor_ != bytes_.size())
        corrupt("trailing garbage after last section");
}

bool
SnapshotReader::hasSection(const std::string &name) const
{
    for (const Section &s : sections_) {
        if (s.name == name)
            return true;
    }
    return false;
}

void
SnapshotReader::openSection(const std::string &name)
{
    if (open_)
        corrupt("openSection('" + name + "') with a section open");
    for (const Section &s : sections_) {
        if (s.name == name) {
            open_ = &s;
            cursor_ = s.offset;
            return;
        }
    }
    corrupt("missing section '" + name + "'");
}

void
SnapshotReader::closeSection()
{
    if (!open_)
        corrupt("closeSection with no section open");
    if (cursor_ != open_->offset + open_->size)
        corrupt("section not fully consumed (layout mismatch)");
    open_ = nullptr;
}

void
SnapshotReader::getBytes(void *out, std::size_t len)
{
    if (!open_)
        corrupt("read with no section open");
    if (remaining() < len)
        corrupt("read past end of section");
    std::memcpy(out, bytes_.data() + cursor_, len);
    cursor_ += len;
}

std::size_t
SnapshotReader::remaining() const
{
    return open_ ? open_->offset + open_->size - cursor_ : 0;
}

void
SnapshotReader::require(bool cond, const char *what)
{
    if (!cond)
        corrupt(std::string("incompatible state: ") + what);
}

void
Archive::section(const std::string &name)
{
    if (w_) {
        w_->beginSection(name);
        return;
    }
    if (inSection_)
        r_->closeSection();
    r_->openSection(name);
    inSection_ = true;
}

void
Archive::endSections()
{
    if (r_ && inSection_)
        r_->closeSection();
    inSection_ = false;
}

void
Archive::layout(const char *kind, std::uint32_t expected)
{
    std::uint32_t stored = expected;
    u32(stored);
    if (stored != expected) {
        r_->corrupt("unsupported " + std::string(kind) + " layout " +
                    std::to_string(stored) +
                    " (this build reads layout " +
                    std::to_string(expected) + ")");
    }
}

void
Archive::number(std::uint64_t &v, unsigned n)
{
    std::uint8_t b[8] = {};
    if (w_) {
        for (unsigned i = 0; i < n; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        w_->putBytes(b, n);
        return;
    }
    r_->getBytes(b, n);
    v = 0;
    for (unsigned i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
}

void
Archive::u8(std::uint8_t &v)
{
    std::uint64_t x = v;
    number(x, 1);
    v = static_cast<std::uint8_t>(x);
}

void
Archive::u32(std::uint32_t &v)
{
    std::uint64_t x = v;
    number(x, 4);
    v = static_cast<std::uint32_t>(x);
}

void
Archive::u64(std::uint64_t &v)
{
    number(v, 8);
}

void
Archive::boolean(bool &v)
{
    std::uint8_t x = v ? 1 : 0;
    u8(x);
    v = x != 0;
}

void
Archive::f64(double &v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
    std::memcpy(&v, &bits, sizeof(v));
}

void
Archive::str(std::string &s)
{
    auto len = static_cast<std::uint32_t>(s.size());
    u32(len);
    if (r_) {
        if (r_->remaining() < len)
            r_->corrupt("string runs past end of section");
        s.resize(len);
    }
    bytes(s.data(), len);
}

void
Archive::bytes(void *data, std::size_t len)
{
    if (w_)
        w_->putBytes(data, len);
    else
        r_->getBytes(data, len);
}

void
Archive::u64Vec(std::vector<std::uint64_t> &v)
{
    std::uint64_t n = v.size();
    u64(n);
    if (r_) {
        if (r_->remaining() / 8 < n)
            r_->corrupt("vector runs past end of section");
        v.resize(static_cast<std::size_t>(n));
    }
    for (std::uint64_t &x : v)
        u64(x);
}

void
Archive::fixed32(std::uint32_t n, const char *what)
{
    std::uint32_t stored = n;
    u32(stored);
    require(stored == n, what);
}

void
Archive::fixed64(std::uint64_t n, const char *what)
{
    std::uint64_t stored = n;
    u64(stored);
    require(stored == n, what);
}

void
Archive::tag(const std::string &name, const char *what)
{
    std::string stored = name;
    str(stored);
    require(stored == name, what);
}

} // namespace s64v::ckpt
