#include "common/config.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace s64v
{

std::uint64_t
parseU64(const std::string &text, const char *what)
{
    // strtoull skips blanks and wraps a '-' around, so the first
    // character must already be a digit.
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(begin, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(begin[0])) ||
        end != begin + text.size() || errno == ERANGE)
        fatal("%s: expected an unsigned integer (decimal or 0x hex), "
              "got '%s'",
              what, begin);
    return v;
}

double
parseDouble(const std::string &text, const char *what)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(begin[0])) ||
        end != begin + text.size() || errno == ERANGE || !std::isfinite(v))
        fatal("%s: expected a finite number, got '%s'", what, begin);
    return v;
}

void
ConfigMap::parse(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("malformed config token '%s' (expected key=value)",
              token.c_str());
    set(token.substr(0, eq), token.substr(eq + 1));
}

void
ConfigMap::parseArgs(const std::vector<std::string> &args)
{
    for (const std::string &tok : args)
        parse(tok);
}

void
ConfigMap::parseArgs(int argc, const char *const *argv)
{
    if (argc > 1)
        parseArgs(std::vector<std::string>(argv + 1, argv + argc));
}

void
ConfigMap::set(const std::string &key, const std::string &value)
{
    values_[key] = Value{value, false};
}

bool
ConfigMap::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
ConfigMap::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    it->second.consumed = true;
    return it->second.text;
}

std::uint64_t
ConfigMap::getU64(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    it->second.consumed = true;
    return parseU64(it->second.text, key.c_str());
}

double
ConfigMap::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    it->second.consumed = true;
    return parseDouble(it->second.text, key.c_str());
}

void
ConfigMap::rejectUnreadKeys() const
{
    std::string unread;
    for (const auto &[key, value] : values_) {
        if (!value.consumed)
            unread += (unread.empty() ? "'" : ", '") + key + "=" +
                value.text + "'";
    }
    if (!unread.empty())
        fatal("unknown argument %s", unread.c_str());
}

} // namespace s64v
