#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace s64v
{

namespace
{

std::string *logSink = nullptr;
/**
 * Per-thread: a sweep worker converts its own panics into exceptions
 * (per-point error isolation) without changing how every other
 * thread's errors terminate the process.
 */
thread_local bool throwOnError = false;
ErrorHook errorHook;
thread_local bool inErrorHook = false;

/** Run the error hook once, shielding against recursive errors. */
void
runErrorHook(const char *kind, const std::string &msg)
{
    if (!errorHook || inErrorHook)
        return;
    inErrorHook = true;
    try {
        errorHook(kind, msg);
    } catch (...) {
        // A crash reporter that itself dies must not mask the
        // original error.
    }
    inErrorHook = false;
}

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("S64V_LOG_LEVEL");
    if (!env || !*env)
        return LogLevel::Info;
    if (!std::strcmp(env, "0") || !std::strcmp(env, "silent"))
        return LogLevel::Silent;
    if (!std::strcmp(env, "1") || !std::strcmp(env, "warn"))
        return LogLevel::Warn;
    if (!std::strcmp(env, "2") || !std::strcmp(env, "info"))
        return LogLevel::Info;
    std::fprintf(stderr, "warn: unrecognized S64V_LOG_LEVEL '%s'; "
                 "using info\n", env);
    return LogLevel::Info;
}

LogLevel &
currentLevel()
{
    static LogLevel level = levelFromEnv();
    return level;
}

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return "<format error>";
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

void
emit(const char *tag, const std::string &msg)
{
    if (logSink) {
        *logSink += tag;
        *logSink += ": ";
        *logSink += msg;
        *logSink += '\n';
    } else {
        std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    }
}

} // namespace

void
setLogLevel(LogLevel level)
{
    currentLevel() = level;
}

LogLevel
logLevel()
{
    return currentLevel();
}

void
setLogSink(std::string *sink)
{
    logSink = sink;
}

void
setThrowOnError(bool throw_on_error)
{
    throwOnError = throw_on_error;
}

bool
throwOnErrorEnabled()
{
    return throwOnError;
}

void
setErrorHook(ErrorHook hook)
{
    errorHook = std::move(hook);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    runErrorHook("panic", msg);
    if (throwOnError)
        throw std::runtime_error("panic: " + msg);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    runErrorHook("fatal", msg);
    if (throwOnError)
        throw std::runtime_error("fatal: " + msg);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (currentLevel() < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("warn", vformat(fmt, ap));
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (currentLevel() < LogLevel::Info)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("info", vformat(fmt, ap));
    va_end(ap);
}

} // namespace s64v
