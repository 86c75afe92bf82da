#include "trace/trace_io.hh"

#include "check/fault_inject.hh"
#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "model/fingerprint.hh"

namespace s64v
{

void
writeTraceFile(const std::string &path, const InstrTrace &trace)
{
    // Fault injection (--inject-fault=trace-corrupt:<rec>): flip a bit
    // of the chosen record's class byte before the image is sealed, so
    // the checksums hold and the loader's record validation is what
    // must catch it.
    const check::FaultPlan &fault = check::activeFaultPlan();
    const bool inject = fault.active(check::FaultKind::TraceCorrupt) &&
        fault.at < trace.size();

    ckpt::SnapshotWriter w;
    w.beginSection("trace");
    w.putU32(kTraceFileLayout);
    w.putString(trace.workloadName());
    w.putU64(trace.size());
    const std::vector<TraceRecord> &recs = trace.records();
    const std::size_t flip = inject ? fault.at : recs.size();
    w.putBytes(recs.data(), flip * sizeof(TraceRecord));
    if (inject) {
        TraceRecord bad = recs[flip];
        bad.cls = static_cast<InstrClass>(
            static_cast<std::uint8_t>(bad.cls) ^ 0x80);
        w.putBytes(&bad, sizeof(bad));
        w.putBytes(recs.data() + flip + 1,
                   (recs.size() - flip - 1) * sizeof(TraceRecord));
    }
    w.writeFile(path, modelVersionString());
    if (inject) {
        warn("injected bit flip into trace record %llu of '%s'",
             static_cast<unsigned long long>(fault.at), path.c_str());
    }
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
