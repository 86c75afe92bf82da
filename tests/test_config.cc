#include "common/config.hh"

#include <cstdlib>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "common/logging.hh"

namespace s64v
{
namespace
{

TEST(Config, ParseAndTypedAccess)
{
    ConfigMap cfg;
    cfg.parse("cpus=16");
    cfg.parse("ipc.target=1.25");
    cfg.parse("name=tpcc");

    EXPECT_EQ(cfg.getU64("cpus", 1), 16u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("ipc.target", 0.0), 1.25);
    EXPECT_EQ(cfg.getString("name", ""), "tpcc");
}

TEST(Config, Defaults)
{
    ConfigMap cfg;
    EXPECT_EQ(cfg.getU64("absent", 7), 7u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("absent", 0.5), 0.5);
    EXPECT_EQ(cfg.getString("absent", "d"), "d");
}

TEST(Config, MalformedTokenIsFatal)
{
    setThrowOnError(true);
    ConfigMap cfg;
    EXPECT_THROW(cfg.parse("novalue"), std::runtime_error);
    EXPECT_THROW(cfg.parse("=x"), std::runtime_error);
    setThrowOnError(false);
}

TEST(Config, ParseArgsRejectsNonAssignments)
{
    const char *argv[] = {"prog", "cpus=4"};
    ConfigMap cfg;
    cfg.parseArgs(2, argv);
    EXPECT_EQ(cfg.getU64("cpus", 0), 4u);

    // A token without '=' is a typo, not something to skip.
    setThrowOnError(true);
    for (const char *bad : {"run", "--flag"}) {
        const char *args[] = {"prog", "cpus=4", bad};
        EXPECT_THROW(ConfigMap().parseArgs(3, args), std::runtime_error)
            << bad;
    }
    setThrowOnError(false);
}

TEST(Config, UnconsumedTracking)
{
    setThrowOnError(true);
    ConfigMap cfg;
    cfg.parse("used=1");
    cfg.parse("typo=2");
    cfg.parse("also=3");
    (void)cfg.getU64("used", 0);
    try {
        cfg.rejectUnreadKeys();
        ADD_FAILURE() << "unread keys were accepted";
    } catch (const std::runtime_error &e) {
        // Every unread key is named, the read one is not.
        const std::string what = e.what();
        EXPECT_NE(what.find("'typo=2'"), std::string::npos) << what;
        EXPECT_NE(what.find("'also=3'"), std::string::npos) << what;
        EXPECT_EQ(what.find("used"), std::string::npos) << what;
    }
    (void)cfg.getString("typo", "");
    (void)cfg.getString("also", "");
    EXPECT_NO_THROW(cfg.rejectUnreadKeys());
    setThrowOnError(false);
}

TEST(Config, HexIntegers)
{
    ConfigMap cfg;
    cfg.parse("base=0x1000");
    EXPECT_EQ(cfg.getU64("base", 0), 0x1000u);
}

TEST(Config, NumbersAreReadWhole)
{
    EXPECT_EQ(parseU64("0", "n"), 0u);
    EXPECT_EQ(parseU64("200000", "n"), 200000u);
    EXPECT_EQ(parseU64("0xFFFFFFFFFFFFFFFF", "n"), ~std::uint64_t{0});
    EXPECT_EQ(parseU64("18446744073709551615", "n"), ~std::uint64_t{0});
    EXPECT_DOUBLE_EQ(parseDouble("2e5", "x"), 2e5);
    EXPECT_DOUBLE_EQ(parseDouble("-0.5", "x"), -0.5);
    EXPECT_DOUBLE_EQ(parseDouble(".25", "x"), 0.25);

    setThrowOnError(true);
    for (const char *bad : {"", "2e5", "1.5", "12junk", "-1", "+5", " 5",
                            "5 ", "0x", "x10", "18446744073709551616"})
        EXPECT_THROW(parseU64(bad, "n"), std::runtime_error) << bad;
    for (const char *bad :
         {"", "1.5x", "inf", "nan", "1e999", " 1", "1 ", "--1", "e5"})
        EXPECT_THROW(parseDouble(bad, "x"), std::runtime_error) << bad;
    setThrowOnError(false);
}

TEST(Config, MalformedNumbersNameTheKey)
{
    // "quickstart instrs=2e5" used to simulate 2 instructions.
    setThrowOnError(true);
    ConfigMap cfg;
    cfg.parse("instrs=2e5");
    cfg.parse("wl.load=0.2.1");
    try {
        (void)cfg.getU64("instrs", 100000);
        ADD_FAILURE() << "instrs=2e5 was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("instrs"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("'2e5'"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW((void)cfg.getDouble("wl.load", 0.2), std::runtime_error);
    setThrowOnError(false);
}

/** Sets an environment variable for one scope, then puts it back. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(Config, RunLengthVariablesMustBePositiveIntegers)
{
    {
        ScopedEnv env("S64V_INSTRS", "");
        EXPECT_EQ(upRunLength(), 300000u); // empty keeps the default.
    }
    {
        ScopedEnv env("S64V_INSTRS", "20000");
        EXPECT_EQ(upRunLength(), 20000u);
    }
    // "S64V_INSTRS=3e5 fig08_issue_width" used to print a whole
    // figure from 3-record traces.
    setThrowOnError(true);
    for (const char *bad : {"3e5", "0", "-5", "20k"}) {
        ScopedEnv env("S64V_INSTRS", bad);
        EXPECT_THROW(upRunLength(), std::runtime_error) << bad;
    }
    {
        ScopedEnv env("S64V_SMP_INSTRS", "1e5");
        EXPECT_THROW(smpRunLength(), std::runtime_error);
    }
    {
        ScopedEnv env("S64V_L2_INSTRS", "4M");
        EXPECT_THROW(l2RunLength(), std::runtime_error);
    }
    setThrowOnError(false);
}

} // namespace
} // namespace s64v
