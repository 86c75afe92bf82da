/**
 * @file
 * String-keyed configuration overrides. The example CLIs and the
 * experiment harness parse "key=value" pairs into a ConfigMap and
 * apply them to parameter structs.
 */

#ifndef S64V_COMMON_CONFIG_HH
#define S64V_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace s64v
{

/**
 * A flat set of key=value overrides with typed accessors. Keys that
 * are read are marked consumed so callers can reject typos.
 */
class ConfigMap
{
  public:
    ConfigMap() = default;

    /** Parse a single "key=value" token; fatal() on malformed input. */
    void parse(const std::string &token);

    /** Parse @p args, skipping entries without '='. */
    void parseArgs(const std::vector<std::string> &args);

    /** Parse argv-style tokens, skipping entries without '='. */
    void parseArgs(int argc, const char *const *argv);

    /** Set a value programmatically. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /** Typed lookups returning @p def when the key is absent. */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** @return keys that were set but never read. */
    std::vector<std::string> unconsumedKeys() const;

  private:
    struct Value
    {
        std::string text;
        mutable bool consumed = false;
    };
    std::map<std::string, Value> values_;
};

} // namespace s64v

#endif // S64V_COMMON_CONFIG_HH
