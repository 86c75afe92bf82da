#include "check/crash_report.hh"

#include <mutex>
#include <vector>

#include "check/fault_inject.hh"
#include "common/file_util.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/run_obs.hh"
#include "obs/stats_export.hh"
#include "sim/system.hh"

namespace s64v
{
namespace check
{

namespace
{
/**
 * Per-thread: each sweep worker registers the system it is running,
 * so a panic on any thread reports the machine that actually died
 * instead of whichever system another thread registered last.
 */
thread_local System *crashSystem_ = nullptr;
thread_local std::string crashPointLabel_;
thread_local std::size_t crashPointIndex_ = 0;
} // namespace

void
setCrashSystem(System *sys)
{
    crashSystem_ = sys;
}

System *
crashSystem()
{
    return crashSystem_;
}

void
setCrashPoint(const std::string &label, std::size_t index)
{
    crashPointLabel_ = label;
    crashPointIndex_ = index;
}

void
clearCrashPoint()
{
    crashPointLabel_.clear();
    crashPointIndex_ = 0;
}

namespace
{

void
writeCoreState(obs::JsonWriter &w, Core &core, CpuId cpu)
{
    w.beginObject();
    w.field("cpu", std::uint64_t{cpu});
    w.field("raw_issued", core.rawIssued());
    w.field("raw_committed", core.rawCommitted());
    w.field("last_commit_cycle",
            std::uint64_t{core.lastCommitCycle()});

    w.beginObject("occupancy");
    w.field("window", std::uint64_t{core.windowSize()});
    w.field("window_capacity", std::uint64_t{core.windowCapacity()});
    w.field("fetch_queue", std::uint64_t{core.fetchUnit().queueSize()});
    w.field("lq", std::uint64_t{core.lsq().lqSize()});
    w.field("lq_capacity", std::uint64_t{core.lsq().lqCapacity()});
    w.field("sq", std::uint64_t{core.lsq().sqSize()});
    w.field("sq_capacity", std::uint64_t{core.lsq().sqCapacity()});
    w.field("pending_stores",
            std::uint64_t{core.pendingStoreCount()});
    w.field("int_rename", std::uint64_t{core.renameUnit().intInUse()});
    w.field("fp_rename", std::uint64_t{core.renameUnit().fpInUse()});
    w.beginArray("stations");
    for (unsigned i = 0; i < kNumRs; ++i) {
        const ReservationStation *rs = core.station(i);
        if (!rs)
            continue;
        w.beginObject();
        w.field("index", std::uint64_t{i});
        w.field("occupancy", std::uint64_t{rs->occupancy()});
        w.field("capacity", std::uint64_t{rs->capacity()});
        w.end();
    }
    w.end(); // stations
    w.end(); // occupancy

    w.beginArray("recent_commits");
    for (const RecentCommit &rc : core.recentCommits()) {
        w.beginObject();
        w.field("seq", rc.seq);
        w.field("pc", std::uint64_t{rc.pc});
        w.field("cycle", std::uint64_t{rc.cycle});
        w.end();
    }
    w.end(); // recent_commits
    w.end(); // core object
}

void
writeMemState(obs::JsonWriter &w, System &sys)
{
    MemSystem &mem = sys.mem();
    const Cycle now = sys.currentCycle();

    w.beginObject("mem");
    w.field("bus_transactions", mem.bus().transactions());
    w.field("coherence_invalidations",
            mem.coherence().invalidationsSent());
    w.field("coherence_dirty_supplies",
            mem.coherence().dirtySupplies());

    w.beginArray("pending_fills");
    for (CpuId c = 0; c < mem.numCpus(); ++c) {
        const TimedCache *caches[3] = {&mem.l1i(c), &mem.l1d(c),
                                       &mem.l2(c)};
        const char *names[3] = {"l1i", "l1d", "l2"};
        for (unsigned i = 0; i < 3; ++i) {
            const std::size_t pending =
                caches[i]->pendingFillCount(now);
            if (pending == 0)
                continue;
            w.beginObject();
            w.field("cpu", std::uint64_t{c});
            w.field("cache", names[i]);
            w.field("count", std::uint64_t{pending});
            w.field("earliest_ready",
                    std::uint64_t{caches[i]->nextPendingFill(now)});
            w.end();
        }
    }
    w.end(); // pending_fills
    w.end(); // mem
}

} // namespace

std::string
buildCrashReportJson(System &sys, const char *kind,
                     const std::string &msg, std::uint64_t seed)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("kind", kind);
    w.field("message", msg);
    if (seed != obs::ObsOptions::kUnset)
        w.field("seed", seed);
    w.field("cycle", std::uint64_t{sys.currentCycle()});
    w.field("max_cycles", sys.params().maxCycles);
    w.field("hit_cycle_cap", sys.hitCycleCap());
    w.field("num_cpus", std::uint64_t{sys.params().numCpus});
    const FaultPlan &fault = activeFaultPlan();
    if (fault.kind != FaultKind::None) {
        w.beginObject("injected_fault");
        w.field("kind", faultKindName(fault.kind));
        w.field("at", fault.at);
        w.end();
    }
    if (!crashPointLabel_.empty()) {
        w.beginObject("sweep_point");
        w.field("label", crashPointLabel_);
        w.field("index", std::uint64_t{crashPointIndex_});
        w.end();
    }
    w.beginArray("cores");
    for (CpuId c = 0; c < sys.params().numCpus; ++c)
        writeCoreState(w, sys.core(c), c);
    w.end(); // cores
    writeMemState(w, sys);
    w.end();
    return w.str();
}

bool
writeCrashReport(const std::string &path, const std::string &json)
{
    std::string err;
    if (!atomicWriteFile(path, json + '\n', &err)) {
        warn("cannot write crash report to '%s': %s", path.c_str(),
             err.c_str());
        return false;
    }
    warn("crash report written to %s", path.c_str());
    return true;
}

namespace
{

/** The sink's state (see ScopedCrashReporting). */
struct SinkState
{
    std::mutex mutex;
    std::vector<std::string> crashes; ///< rendered report objects.
    std::string path;
    std::string statsSalvagePath;
    std::uint64_t seed = obs::ObsOptions::kUnset;
};

SinkState &
sinkState()
{
    static SinkState state;
    return state;
}

/** Render the crash document from the recorded entries. Caller holds
 *  the sink mutex. */
std::string
buildCrashDocument(const SinkState &state)
{
    std::string doc = "{\"schema\": \"s64v-crash-triage-1\", "
                      "\"count\": " +
        std::to_string(state.crashes.size()) + ", \"crashes\": [";
    for (std::size_t i = 0; i < state.crashes.size(); ++i) {
        if (i != 0)
            doc += ", ";
        doc += state.crashes[i];
    }
    doc += "]}";
    return doc;
}

} // namespace

ScopedCrashReporting::ScopedCrashReporting(
    const std::string &path, const std::string &stats_salvage_path,
    std::uint64_t seed)
{
    // A machine registered by an earlier run on this thread is not
    // this run's: until this run's System::run() registers its own, a
    // failure finds no machine and records nothing, as it would on a
    // fresh sweep worker.
    setCrashSystem(nullptr);
    SinkState &state = sinkState();
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.crashes.clear();
        state.path = path.empty() ? "crash_report.json" : path;
        state.statsSalvagePath = stats_salvage_path;
        state.seed = seed;
    }
    setErrorHook([](const char *kind, const std::string &msg) {
        System *sys = crashSystem();
        if (!sys)
            return;
        SinkState &st = sinkState();
        // One mutex serializes concurrent dying points: each appends
        // its entry and rewrites the document, so no report is ever
        // lost to a last-writer-wins overwrite.
        std::lock_guard<std::mutex> lock(st.mutex);
        st.crashes.push_back(
            buildCrashReportJson(*sys, kind, msg, st.seed));
        writeCrashReport(st.path, buildCrashDocument(st));
        // Salvage the partial stats of the crashed run as well.
        if (!st.statsSalvagePath.empty()) {
            sys->settleStats();
            obs::writeStatsJson(sys->root(), st.statsSalvagePath);
        }
    });
}

ScopedCrashReporting::~ScopedCrashReporting()
{
    setErrorHook({});
}

std::size_t
crashCount()
{
    SinkState &state = sinkState();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.crashes.size();
}

} // namespace check
} // namespace s64v
