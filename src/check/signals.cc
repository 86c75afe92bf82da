#include "check/signals.hh"

#include <atomic>
#include <csignal>

namespace s64v::check
{

namespace
{

// Lock-free atomics, because the flags are written from the signal
// handler and also, through requestStop(), by one sweep worker while
// the others poll them; a volatile sig_atomic_t is only safe for the
// signal handler.
static_assert(std::atomic<int>::is_always_lock_free);
std::atomic<int> g_stopSignal{0};
std::atomic<int> g_stopRequested{0};

unsigned g_guardDepth = 0;
struct sigaction g_oldInt;
struct sigaction g_oldTerm;

extern "C" void
stopHandler(int sig)
{
    g_stopSignal = sig;
    g_stopRequested = 1;
}

} // namespace

bool
stopRequested()
{
    return g_stopRequested != 0;
}

void
requestStop()
{
    g_stopRequested = 1;
}

void
clearStopRequest()
{
    g_stopRequested = 0;
    g_stopSignal = 0;
}

int
stopSignal()
{
    return g_stopSignal;
}

ScopedSignalGuard::ScopedSignalGuard()
{
    if (g_guardDepth++ != 0)
        return;
    struct sigaction sa = {};
    sa.sa_handler = stopHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: interrupt blocking syscalls.
    installed_ = sigaction(SIGINT, &sa, &g_oldInt) == 0;
    if (installed_ && sigaction(SIGTERM, &sa, &g_oldTerm) != 0) {
        sigaction(SIGINT, &g_oldInt, nullptr);
        installed_ = false;
    }
}

ScopedSignalGuard::~ScopedSignalGuard()
{
    --g_guardDepth;
    if (!installed_)
        return;
    sigaction(SIGINT, &g_oldInt, nullptr);
    sigaction(SIGTERM, &g_oldTerm, nullptr);
}

} // namespace s64v::check
