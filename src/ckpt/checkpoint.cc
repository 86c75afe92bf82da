#include "ckpt/checkpoint.hh"

#include <cstdio>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "model/fingerprint.hh"
#include "sim/system.hh"

namespace s64v::ckpt
{

namespace
{

std::string
cpuSectionName(unsigned cpu)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "cpu%u", cpu);
    return buf;
}

/**
 * The checkpoint's one walk, writing @p system's state or reading it
 * back (@p path names the file in a restore's diagnostics). A read
 * validates the layout, the configuration fingerprint and each CPU's
 * trace identity before any component reads a value.
 */
void
walk(System &system, Archive &ar, const std::string &path)
{
    const unsigned num_cpus = system.params().numCpus;

    ar.section("config");
    ar.layout("checkpoint", kCheckpointLayout);
    const std::uint64_t want = fingerprintSystemParams(system.params());
    std::uint64_t fp = want;
    ar.u64(fp);
    if (fp != want) {
        fatal("checkpoint '%s': configuration fingerprint %016llx "
              "does not match this system's %016llx (different "
              "machine parameters)",
              path.c_str(), static_cast<unsigned long long>(fp),
              static_cast<unsigned long long>(want));
    }
    ar.fixed32(num_cpus, "CPU count differs");

    ar.section("run");
    RunContinuation cont = system.continuation();
    ar.u64(cont.nextCycle);
    ar.boolean(cont.warmDone);
    ar.u64(cont.warmupEndCycle);
    ar.u64Vec(cont.warmupCommitted);
    ar.require(cont.warmupCommitted.size() == num_cpus,
               "warm-up record count differs from CPU count");

    ar.section("trace");
    for (unsigned i = 0; i < num_cpus; ++i) {
        const InstrTrace *trace = system.trace(i);
        VectorTraceSource *src = system.traceSource(i);
        if (!trace || !src) {
            fatal("%s: cpu %u has no trace attached",
                  ar.loading() ? "restore" : "checkpoint", i);
        }
        const std::uint64_t hash_want = fingerprintTrace(*trace);
        std::string name = trace->workloadName();
        std::uint64_t size = trace->size();
        std::uint64_t hash = hash_want;
        std::uint64_t pos = src->consumed();
        ar.str(name);
        ar.u64(size);
        ar.u64(hash);
        ar.u64(pos);
        if (name != trace->workloadName() || size != trace->size() ||
            hash != hash_want) {
            fatal("checkpoint '%s': cpu %u was tracing '%s' (%llu "
                  "records); the attached trace is '%s' (%llu "
                  "records)",
                  path.c_str(), i, name.c_str(),
                  static_cast<unsigned long long>(size),
                  trace->workloadName().c_str(),
                  static_cast<unsigned long long>(trace->size()));
        }
        ar.require(pos <= size, "trace cursor past the end");
        if (ar.loading())
            src->seek(pos);
    }

    ar.section("stats");
    system.root().checkpoint(ar);

    ar.section("mem");
    system.mem().checkpoint(ar);

    for (unsigned i = 0; i < num_cpus; ++i) {
        ar.section(cpuSectionName(i));
        system.core(i).checkpoint(ar);
    }
    ar.endSections();

    if (ar.loading())
        system.setContinuation(cont);
}

} // namespace

void
writeSystemCheckpoint(System &system, const std::string &path)
{
    SnapshotWriter w;
    Archive ar(w);
    walk(system, ar, path);
    w.writeFile(path, modelVersionString());
}

void
restoreSystemCheckpoint(System &system, const std::string &path)
{
    try {
        SnapshotReader r = SnapshotReader::fromFile(path);
        if (r.modelVersion() != modelVersionString()) {
            fatal("checkpoint '%s': written by model version '%s'; "
                  "this build is '%s'",
                  path.c_str(), r.modelVersion().c_str(),
                  modelVersionString());
        }
        Archive ar(r);
        walk(system, ar, path);
    } catch (const SnapshotError &e) {
        fatal("checkpoint '%s': %s", path.c_str(), e.what());
    }
}

} // namespace s64v::ckpt
