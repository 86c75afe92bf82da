#include "exp/journal.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "check/fault_inject.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace s64v::exp
{

namespace
{

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

constexpr std::uint32_t kJournalSchemaVersion = 2;

/**
 * Deepest nesting a well-formed entry uses: the entry, "sim", "cores"
 * and one core. Anything deeper is malformed, and refusing it bounds
 * the parser's recursion whatever a damaged line holds.
 */
constexpr unsigned kMaxJournalDepth = 4;

/**
 * Minimal JSON document model for reading our own journal lines back.
 * The simulator otherwise only *writes* JSON; this parser accepts the
 * full JSON grammar (so a hand-edited or foreign line fails cleanly,
 * not unpredictably) but keeps numbers as raw text — journal numbers
 * are all u64, parsed on demand.
 */
struct Jv
{
    enum class Kind : std::uint8_t { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; ///< Str content or Num raw spelling.
    std::vector<Jv> items;
    std::vector<std::pair<std::string, Jv>> fields;

    const Jv *
    find(const char *key) const
    {
        for (const auto &[k, v] : fields) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    bool
    parse(Jv &out)
    {
        return value(out, 0) && (skipWs(), pos_ == text_.size());
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      return false;
                  unsigned cp = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text_[pos_++];
                      cp <<= 4;
                      if (h >= '0' && h <= '9')
                          cp |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          cp |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          cp |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          return false;
                  }
                  // UTF-8 encode (surrogate pairs unsupported; our
                  // writer never emits them).
                  if (cp < 0x80) {
                      out.push_back(static_cast<char>(cp));
                  } else if (cp < 0x800) {
                      out.push_back(
                          static_cast<char>(0xc0 | (cp >> 6)));
                      out.push_back(
                          static_cast<char>(0x80 | (cp & 0x3f)));
                  } else {
                      out.push_back(
                          static_cast<char>(0xe0 | (cp >> 12)));
                      out.push_back(static_cast<char>(
                          0x80 | ((cp >> 6) & 0x3f)));
                      out.push_back(
                          static_cast<char>(0x80 | (cp & 0x3f)));
                  }
                  break;
              }
              default:
                return false;
            }
        }
        return false; // unterminated.
    }

    bool
    number(Jv &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [&]() {
            const std::size_t d = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ > d;
        };
        if (!digits())
            return false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        out.kind = Jv::Kind::Num;
        out.text = std::string(text_.substr(start, pos_ - start));
        return true;
    }

    /** Parse one value nested inside @p depth containers. */
    bool
    value(Jv &out, unsigned depth)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if ((c == '{' || c == '[') && depth == kMaxJournalDepth)
            return false;
        if (c == '{') {
            ++pos_;
            out.kind = Jv::Kind::Obj;
            skipWs();
            if (eat('}'))
                return true;
            for (;;) {
                std::string key;
                skipWs();
                if (!string(key) || !eat(':'))
                    return false;
                Jv v;
                if (!value(v, depth + 1))
                    return false;
                out.fields.emplace_back(std::move(key),
                                        std::move(v));
                if (eat('}'))
                    return true;
                if (!eat(','))
                    return false;
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = Jv::Kind::Arr;
            skipWs();
            if (eat(']'))
                return true;
            for (;;) {
                Jv v;
                if (!value(v, depth + 1))
                    return false;
                out.items.push_back(std::move(v));
                if (eat(']'))
                    return true;
                if (!eat(','))
                    return false;
            }
        }
        if (c == '"') {
            out.kind = Jv::Kind::Str;
            return string(out.text);
        }
        if (c == 't') {
            out.kind = Jv::Kind::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = Jv::Kind::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = Jv::Kind::Null;
            return literal("null");
        }
        return number(out);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/** Typed field extraction; each returns false on absent/mistyped. @{ */
bool
getU64(const Jv &obj, const char *key, std::uint64_t &out)
{
    const Jv *v = obj.find(key);
    if (!v || v->kind != Jv::Kind::Num || v->text.empty() ||
        v->text[0] == '-')
        return false;
    out = std::strtoull(v->text.c_str(), nullptr, 10);
    return true;
}

bool
getStr(const Jv &obj, const char *key, std::string &out)
{
    const Jv *v = obj.find(key);
    if (!v || v->kind != Jv::Kind::Str)
        return false;
    out = v->text;
    return true;
}

bool
getBool(const Jv &obj, const char *key, bool &out)
{
    const Jv *v = obj.find(key);
    if (!v || v->kind != Jv::Kind::Bool)
        return false;
    out = v->boolean;
    return true;
}
/** @} */

bool
decodeSim(const Jv &obj, SimResult &sim)
{
    std::uint64_t u = 0;
    if (!getU64(obj, "cycles", u))
        return false;
    sim.cycles = u;
    if (!getU64(obj, "instructions", sim.instructions) ||
        !getU64(obj, "measured", sim.measured))
        return false;
    if (!getU64(obj, "ipc_bits", u))
        return false;
    sim.ipc = bitsDouble(u);
    if (!getBool(obj, "hit_cycle_cap", sim.hitCycleCap) ||
        !getBool(obj, "interrupted", sim.interrupted) ||
        !getBool(obj, "stopped_at_checkpoint",
                 sim.stoppedAtCheckpoint))
        return false;
    if (!getU64(obj, "warmup_end", u))
        return false;
    sim.warmupEndCycle = u;
    const Jv *cores = obj.find("cores");
    if (!cores || cores->kind != Jv::Kind::Arr)
        return false;
    for (const Jv &c : cores->items) {
        if (c.kind != Jv::Kind::Obj)
            return false;
        CoreResult cr;
        if (!getU64(c, "committed", cr.committed) ||
            !getU64(c, "measured", cr.measured))
            return false;
        if (!getU64(c, "last_commit", u))
            return false;
        cr.lastCommitCycle = u;
        if (!getU64(c, "ipc_bits", u))
            return false;
        cr.ipc = bitsDouble(u);
        sim.cores.push_back(cr);
    }
    return true;
}

} // namespace

std::string
encodeJournalEntry(const JournalEntry &e)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("v", std::uint64_t{kJournalSchemaVersion});
    w.field("index", e.index);
    w.field("label", e.label);
    w.field("config", e.configHash);
    w.field("workload", e.workloadHash);
    w.field("model", e.modelVersion);
    w.field("status", e.status);
    w.field("error", e.error);
    w.beginObject("sim");
    w.field("cycles", std::uint64_t{e.sim.cycles});
    w.field("instructions", e.sim.instructions);
    w.field("measured", e.sim.measured);
    w.field("ipc_bits", doubleBits(e.sim.ipc));
    w.field("hit_cycle_cap", e.sim.hitCycleCap);
    w.field("interrupted", e.sim.interrupted);
    w.field("stopped_at_checkpoint", e.sim.stoppedAtCheckpoint);
    w.field("warmup_end", std::uint64_t{e.sim.warmupEndCycle});
    w.beginArray("cores");
    for (const CoreResult &cr : e.sim.cores) {
        w.beginObject();
        w.field("committed", cr.committed);
        w.field("measured", cr.measured);
        w.field("last_commit", std::uint64_t{cr.lastCommitCycle});
        w.field("ipc_bits", doubleBits(cr.ipc));
        w.end();
    }
    w.end(); // cores
    w.end(); // sim
    w.beginObject("metrics");
    for (const auto &[name, value] : e.metrics)
        w.field(name, doubleBits(value));
    w.end(); // metrics
    w.end();
    return w.str();
}

bool
decodeJournalEntry(std::string_view line, JournalEntry &out)
{
    Jv doc;
    if (!JsonParser(line).parse(doc) || doc.kind != Jv::Kind::Obj)
        return false;
    std::uint64_t v = 0;
    if (!getU64(doc, "v", v) || v != kJournalSchemaVersion)
        return false;
    if (!getU64(doc, "index", out.index) ||
        !getStr(doc, "label", out.label) ||
        !getU64(doc, "config", out.configHash) ||
        !getU64(doc, "workload", out.workloadHash) ||
        !getStr(doc, "model", out.modelVersion) ||
        !getStr(doc, "status", out.status) ||
        !getStr(doc, "error", out.error))
        return false;
    if (out.status != "ok" && out.status != "failed")
        return false;
    const Jv *sim = doc.find("sim");
    if (!sim || sim->kind != Jv::Kind::Obj)
        return false;
    out.sim = SimResult{};
    if (!decodeSim(*sim, out.sim))
        return false;
    const Jv *metrics = doc.find("metrics");
    if (!metrics || metrics->kind != Jv::Kind::Obj)
        return false;
    out.metrics.clear();
    for (const auto &[name, value] : metrics->fields) {
        if (value.kind != Jv::Kind::Num || value.text.empty() ||
            value.text[0] == '-')
            return false;
        out.metrics[name] = bitsDouble(
            std::strtoull(value.text.c_str(), nullptr, 10));
    }
    return true;
}

bool
RunJournal::open(const std::string &path, std::string *err)
{
    appends_ = 0;
    dead_ = false;
    return file_.open(path, err);
}

void
RunJournal::append(const JournalEntry &e)
{
    if (!file_.isOpen())
        return;
    const std::uint64_t ordinal = appends_++;
    std::string line = encodeJournalEntry(e);
    line.push_back('\n');

    if (dead_)
        return; // torn by the injected fault; the "crash" happened.
    const check::FaultPlan &fault = check::activeFaultPlan();
    if (fault.active(check::FaultKind::TruncateJournal) &&
        ordinal == fault.at) {
        warn("fault injection: tearing journal append %llu of '%s' "
             "mid-line",
             static_cast<unsigned long long>(ordinal),
             file_.path().c_str());
        std::string err;
        if (!file_.append(
                std::string_view(line).substr(0, line.size() / 2),
                &err))
            warn("journal append failed: %s", err.c_str());
        dead_ = true;
        return;
    }

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
