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
SnapshotWriter::putRaw(const void *data, std::size_t len)
{
    if (sections_.empty())
        panic("snapshot: put outside any section");
    const auto *p = static_cast<const std::uint8_t *>(data);
    auto &buf = sections_.back().data;
    buf.insert(buf.end(), p, p + len);
}

void
SnapshotWriter::putU16(std::uint16_t v)
{
    if (sections_.empty())
        panic("snapshot: put outside any section");
    appendLe(sections_.back().data, v, 2);
}

void
SnapshotWriter::putU32(std::uint32_t v)
{
    if (sections_.empty())
        panic("snapshot: put outside any section");
    appendLe(sections_.back().data, v, 4);
}

void
SnapshotWriter::putU64(std::uint64_t v)
{
    if (sections_.empty())
        panic("snapshot: put outside any section");
    appendLe(sections_.back().data, v, 8);
}

void
SnapshotWriter::putDouble(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
SnapshotWriter::putString(const std::string &s)
{
    putU32(static_cast<std::uint32_t>(s.size()));
    putRaw(s.data(), s.size());
}

void
SnapshotWriter::putBytes(const void *data, std::size_t len)
{
    putRaw(data, len);
}

void
SnapshotWriter::putU64Vec(const std::vector<std::uint64_t> &v)
{
    putU64(v.size());
    for (std::uint64_t x : v)
        putU64(x);
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
SnapshotReader::checkLayout(const char *kind, std::uint32_t expected)
{
    const std::uint32_t layout = getU32();
    if (layout != expected) {
        corrupt("unsupported " + std::string(kind) + " layout " +
                std::to_string(layout) + " (this build reads layout " +
                std::to_string(expected) + ")");
    }
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
SnapshotReader::getRaw(void *out, std::size_t len)
{
    if (!open_)
        corrupt("read with no section open");
    if (open_->offset + open_->size - cursor_ < len)
        corrupt("read past end of section");
    std::memcpy(out, bytes_.data() + cursor_, len);
    cursor_ += len;
}

std::uint8_t
SnapshotReader::getU8()
{
    std::uint8_t v;
    getRaw(&v, 1);
    return v;
}

std::uint16_t
SnapshotReader::getU16()
{
    std::uint8_t b[2];
    getRaw(b, 2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t
SnapshotReader::getU32()
{
    std::uint8_t b[4];
    getRaw(b, 4);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
}

std::uint64_t
SnapshotReader::getU64()
{
    std::uint8_t b[8];
    getRaw(b, 8);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
}

double
SnapshotReader::getDouble()
{
    const std::uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
SnapshotReader::getString()
{
    const std::uint32_t len = getU32();
    if (!open_ || open_->offset + open_->size - cursor_ < len)
        corrupt("string runs past end of section");
    std::string s(
        reinterpret_cast<const char *>(bytes_.data() + cursor_), len);
    cursor_ += len;
    return s;
}

void
SnapshotReader::getBytes(void *out, std::size_t len)
{
    getRaw(out, len);
}

std::vector<std::uint64_t>
SnapshotReader::getU64Vec()
{
    const std::uint64_t n = getU64();
    if (!open_ || (open_->offset + open_->size - cursor_) / 8 < n)
        corrupt("vector runs past end of section");
    std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = getU64();
    return v;
}

void
SnapshotReader::require(bool cond, const char *what)
{
    if (!cond)
        corrupt(std::string("incompatible state: ") + what);
}

} // namespace s64v::ckpt
