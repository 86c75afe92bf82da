/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic split:
 * panic() is for internal model bugs (aborts), fatal() is for user
 * errors such as bad configurations (clean exit), warn()/inform() are
 * advisory.
 *
 * Exit convention (binding for every binary linking this library —
 * tests, bench harnesses, examples):
 *   - fatal()  -> prints "fatal: ..." to stderr and exits with
 *                 status 1 (std::exit, so atexit flushes run). Use for
 *                 user errors: bad flags, malformed trace files,
 *                 impossible configurations.
 *   - panic()  -> prints "panic: ..." to stderr and calls
 *                 std::abort() (SIGABRT, core dump where enabled).
 *                 Use for internal model bugs and violated
 *                 invariants.
 * Both routes first invoke the error hook (setErrorHook) so the
 * crash-report machinery in src/check/ can capture the dying model's
 * state; see check/crash_report.hh.
 */

#ifndef S64V_COMMON_LOGGING_HH
#define S64V_COMMON_LOGGING_HH

#include <cstdarg>
#include <functional>
#include <string>

namespace s64v
{

/**
 * Verbosity of the advisory channels. Errors (panic/fatal) are always
 * reported; Silent suppresses warn() and inform(), Warn suppresses
 * only inform(). The initial level comes from the S64V_LOG_LEVEL
 * environment variable ("silent"/"0", "warn"/"1", "info"/"2"),
 * defaulting to Info.
 */
enum class LogLevel : int
{
    Silent = 0,
    Warn = 1,
    Info = 2,
};

/** Override the verbosity picked up from S64V_LOG_LEVEL. */
void setLogLevel(LogLevel level);

/** Current verbosity. */
LogLevel logLevel();

/**
 * Abort the process because of an internal model bug. Never returns.
 *
 * @param fmt printf-style format for the diagnostic message.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Exit the process because of a user error (bad parameters, malformed
 * trace file, ...). Never returns.
 *
 * @param fmt printf-style format for the diagnostic message.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about questionable but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Redirect warn()/inform() output into a string sink for tests; pass
 * nullptr to restore stderr. Error paths (panic/fatal) are unaffected.
 */
void setLogSink(std::string *sink);

/**
 * Make panic()/fatal() throw std::runtime_error instead of
 * terminating. Per-thread: the test suite uses it to assert on error
 * paths, and each sweep worker uses it to contain a dying point to
 * that point.
 */
void setThrowOnError(bool throw_on_error);

/** Whether panic()/fatal() throw on the calling thread. */
bool throwOnErrorEnabled();

/**
 * Make panic()/fatal() throw on the calling thread for one scope,
 * then restore the previous mode (a sweep worker may run under a
 * test that already set it).
 */
class ScopedThrowOnError
{
  public:
    ScopedThrowOnError() : saved_(throwOnErrorEnabled())
    {
        setThrowOnError(true);
    }
    ~ScopedThrowOnError() { setThrowOnError(saved_); }

    ScopedThrowOnError(const ScopedThrowOnError &) = delete;
    ScopedThrowOnError &operator=(const ScopedThrowOnError &) = delete;

  private:
    bool saved_;
};

/**
 * Callback invoked with ("panic"|"fatal", message) from inside
 * panic()/fatal() before the process terminates (or the test-mode
 * exception is thrown). Recursive errors raised while the hook runs
 * do not re-enter it. Pass an empty function to uninstall.
 */
using ErrorHook =
    std::function<void(const char *kind, const std::string &msg)>;
void setErrorHook(ErrorHook hook);

} // namespace s64v

#endif // S64V_COMMON_LOGGING_HH
