#include "trace/trace_io.hh"

#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "model/fingerprint.hh"

namespace s64v
{

void
writeTraceFile(const std::string &path, const InstrTrace &trace)
{
    ckpt::SnapshotWriter w;
    ckpt::Archive ar(w);
    ar.section("trace");
    ar.layout("trace", kTraceFileLayout);
    std::string name = trace.workloadName();
    std::uint64_t count = trace.size();
    ar.str(name);
    ar.u64(count);
    const std::vector<TraceRecord> &recs = trace.records();
    w.putBytes(recs.data(), recs.size() * sizeof(TraceRecord));
    w.writeFile(path, modelVersionString());
}

InstrTrace
readTraceFile(const std::string &path)
{
    try {
        ckpt::SnapshotReader r = ckpt::SnapshotReader::fromFile(path);
        ckpt::Archive ar(r);
        ar.section("trace");
        ar.layout("trace", kTraceFileLayout);
        std::string name;
        std::uint64_t count = 0;
        ar.str(name);
        ar.u64(count);
        InstrTrace trace(name);
        for (std::uint64_t i = 0; i < count; ++i) {
            TraceRecord rec;
            ar.bytes(&rec, sizeof(rec));
            if (!recordValid(rec)) {
                r.corrupt("record " + std::to_string(i) +
                          " is corrupt (out-of-range class or "
                          "register)");
            }
            trace.append(rec);
        }
        ar.endSections();
        return trace;
    } catch (const ckpt::SnapshotError &e) {
        fatal("trace file '%s': %s", path.c_str(), e.what());
    }
}

} // namespace s64v
