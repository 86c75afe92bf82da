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
    w.beginSection("trace");
    w.putU32(kTraceFileLayout);
    w.putString(trace.workloadName());
    w.putU64(trace.size());
    const std::vector<TraceRecord> &recs = trace.records();
    w.putBytes(recs.data(), recs.size() * sizeof(TraceRecord));
    w.writeFile(path, modelVersionString());
}

InstrTrace
readTraceFile(const std::string &path)
{
    try {
        ckpt::SnapshotReader r = ckpt::SnapshotReader::fromFile(path);
        r.openSection("trace");
        r.checkLayout("trace", kTraceFileLayout);
        InstrTrace trace(r.getString());
        const std::uint64_t count = r.getU64();
        for (std::uint64_t i = 0; i < count; ++i) {
            TraceRecord rec;
            r.getBytes(&rec, sizeof(rec));
            if (!recordValid(rec)) {
                r.corrupt("record " + std::to_string(i) +
                          " is corrupt (out-of-range class or "
                          "register)");
            }
            trace.append(rec);
        }
        r.closeSection();
        return trace;
    } catch (const ckpt::SnapshotError &e) {
        fatal("trace file '%s': %s", path.c_str(), e.what());
    }
}

} // namespace s64v
