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

    /** parse() every token of @p args. */
    void parseArgs(const std::vector<std::string> &args);

    /** parse() every argv-style token after argv[0]. */
    void parseArgs(int argc, const char *const *argv);

    /** Set a value programmatically. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /**
     * Typed lookups returning @p def when the key is absent. A
     * numeric value must be a number and nothing else (see parseU64
     * and parseDouble), or the lookup is fatal().
     */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;

    /**
     * fatal() naming every key that was set but never read. An entry
     * point calls it after its last lookup and before it simulates or
     * writes anything, so a misspelt key stops the run.
     */
    void rejectUnreadKeys() const;

  private:
    struct Value
    {
        std::string text;
        mutable bool consumed = false;
    };
    std::map<std::string, Value> values_;
};

/**
 * Read all of @p text as an unsigned integer in strtoull's base-0
 * spellings (decimal, 0x hex, leading-0 octal). An empty string, a
 * sign, leading blanks, trailing characters or a value above
 * 2^64 - 1 is fatal(), with a message naming @p what (the flag, key
 * or variable).
 */
std::uint64_t parseU64(const std::string &text, const char *what);

/**
 * Read all of @p text as a finite double. An empty string, leading
 * blanks, trailing characters, inf, nan or an out-of-range exponent
 * is fatal(), with a message naming @p what.
 */
double parseDouble(const std::string &text, const char *what);

} // namespace s64v

#endif // S64V_COMMON_CONFIG_HH
