#include "common/config.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace s64v
{

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
    for (const std::string &tok : args) {
        if (tok.find('=') != std::string::npos)
            parse(tok);
    }
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

std::int64_t
ConfigMap::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    it->second.consumed = true;
    return std::strtoll(it->second.text.c_str(), nullptr, 0);
}

std::uint64_t
ConfigMap::getU64(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    it->second.consumed = true;
    return std::strtoull(it->second.text.c_str(), nullptr, 0);
}

double
ConfigMap::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    it->second.consumed = true;
    return std::strtod(it->second.text.c_str(), nullptr);
}

bool
ConfigMap::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    it->second.consumed = true;
    const std::string &t = it->second.text;
    return t == "1" || t == "true" || t == "yes" || t == "on";
}

std::vector<std::string>
ConfigMap::unconsumedKeys() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : values_) {
        if (!value.consumed)
            out.push_back(key);
    }
    return out;
}

} // namespace s64v
