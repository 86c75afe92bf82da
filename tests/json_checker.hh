/**
 * @file
 * Minimal recursive-descent JSON validity checker shared by the test
 * binaries — the repo has no JSON parser dependency, so the tests
 * bring their own. Validates syntax only; schema assertions are plain
 * substring checks in the tests, such as hasStat() on a stats JSON
 * document.
 */

#ifndef S64V_TESTS_JSON_CHECKER_HH
#define S64V_TESTS_JSON_CHECKER_HH

#include <cctype>
#include <cstring>
#include <string>

namespace s64v::testutil
{

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') { ++pos_; return true; }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    if (pos_ + 4 >= s_.size())
                        return false;
                    pos_ += 4;
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool number()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                std::strchr("+-.eE", s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/**
 * Whether the stats JSON document @p json (obs::exportStatsJson) has
 * a stat named @p name in the group whose dotted path is @p group. A
 * group's own stats precede its first child group's "path" key.
 */
inline bool
hasStat(const std::string &json, const std::string &group,
        const std::string &name)
{
    const std::size_t at = json.find("\"path\":\"" + group + "\"");
    if (at == std::string::npos)
        return false;
    const std::size_t stat = json.find("\"" + name + "\":{", at);
    return stat < json.find("\"path\":", at + 1);
}

} // namespace s64v::testutil

#endif // S64V_TESTS_JSON_CHECKER_HH
