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

} // namespace

void
writeSystemCheckpoint(System &system, const std::string &path)
{
    const unsigned num_cpus = system.params().numCpus;
    SnapshotWriter w;

    w.beginSection("config");
    w.putU32(kCheckpointLayout);
    w.putU64(fingerprintSystemParams(system.params()));
    w.putU32(num_cpus);

    w.beginSection("run");
    const RunContinuation &cont = system.continuation();
    w.putU64(cont.nextCycle);
    w.putBool(cont.warmDone);
    w.putU64(cont.warmupEndCycle);
    w.putU64Vec(cont.warmupCommitted);

    w.beginSection("trace");
    for (unsigned i = 0; i < num_cpus; ++i) {
        const InstrTrace *trace = system.trace(i);
        const VectorTraceSource *src = system.traceSource(i);
        if (!trace || !src)
            fatal("checkpoint: cpu %u has no trace attached", i);
        w.putString(trace->workloadName());
        w.putU64(trace->size());
        w.putU64(fingerprintTrace(*trace));
        w.putU64(src->consumed());
    }

    w.beginSection("stats");
    system.root().saveState(w);

    w.beginSection("mem");
    system.mem().saveState(w);

    for (unsigned i = 0; i < num_cpus; ++i) {
        w.beginSection(cpuSectionName(i));
        system.core(i).saveState(w);
    }

    w.writeFile(path, modelVersionString());
}

namespace
{

/** restoreSystemCheckpoint() minus the verdict on a damaged image. */
void
restore(System &system, const std::string &path)
{
    const unsigned num_cpus = system.params().numCpus;
    SnapshotReader r = SnapshotReader::fromFile(path);

    if (r.modelVersion() != modelVersionString()) {
        fatal("checkpoint '%s': written by model version '%s'; this "
              "build is '%s'",
              path.c_str(), r.modelVersion().c_str(),
              modelVersionString());
    }

    r.openSection("config");
    r.checkLayout("checkpoint", kCheckpointLayout);
    const std::uint64_t fp = r.getU64();
    const std::uint64_t want = fingerprintSystemParams(system.params());
    if (fp != want) {
        fatal("checkpoint '%s': configuration fingerprint %016llx "
              "does not match this system's %016llx (different "
              "machine parameters)",
              path.c_str(), static_cast<unsigned long long>(fp),
              static_cast<unsigned long long>(want));
    }
    const std::uint32_t cpus = r.getU32();
    r.require(cpus == num_cpus, "CPU count differs");
    r.closeSection();

    r.openSection("run");
    RunContinuation cont;
    cont.nextCycle = r.getU64();
    cont.warmDone = r.getBool();
    cont.warmupEndCycle = r.getU64();
    cont.warmupCommitted = r.getU64Vec();
    r.require(cont.warmupCommitted.size() == num_cpus,
              "warm-up record count differs from CPU count");
    r.closeSection();

    r.openSection("trace");
    for (unsigned i = 0; i < num_cpus; ++i) {
        const InstrTrace *trace = system.trace(i);
        VectorTraceSource *src = system.traceSource(i);
        if (!trace || !src)
            fatal("restore: cpu %u has no trace attached", i);
        const std::string name = r.getString();
        const std::uint64_t size = r.getU64();
        const std::uint64_t hash = r.getU64();
        const std::uint64_t pos = r.getU64();
        if (name != trace->workloadName() || size != trace->size() ||
            hash != fingerprintTrace(*trace)) {
            fatal("checkpoint '%s': cpu %u was tracing '%s' (%llu "
                  "records); the attached trace is '%s' (%llu "
                  "records)",
                  path.c_str(), i, name.c_str(),
                  static_cast<unsigned long long>(size),
                  trace->workloadName().c_str(),
                  static_cast<unsigned long long>(trace->size()));
        }
        r.require(pos <= size, "trace cursor past the end");
        src->seek(pos);
    }
    r.closeSection();

    r.openSection("stats");
    system.root().restoreState(r);
    r.closeSection();

    r.openSection("mem");
    system.mem().restoreState(r);
    r.closeSection();

    for (unsigned i = 0; i < num_cpus; ++i) {
        r.openSection(cpuSectionName(i));
        system.core(i).restoreState(r);
        r.closeSection();
    }

    system.setContinuation(cont);
}

} // namespace

void
restoreSystemCheckpoint(System &system, const std::string &path)
{
    try {
        restore(system, path);
    } catch (const SnapshotError &e) {
        fatal("checkpoint '%s': %s", path.c_str(), e.what());
    }
}

} // namespace s64v::ckpt
