#include "trace/trace_io.hh"

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>

#include "check/fault_inject.hh"
#include "common/logging.hh"

namespace s64v
{

namespace
{

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

void
writeTraceFile(const std::string &path, const InstrTrace &trace)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        fatal("cannot open trace file '%s' for writing", path.c_str());

    TraceFileHeader hdr;
    hdr.recordCount = trace.size();
    std::strncpy(hdr.workloadName, trace.workloadName().c_str(),
                 sizeof(hdr.workloadName) - 1);

    if (std::fwrite(&hdr, sizeof(hdr), 1, f.get()) != 1)
        fatal("short write of trace header to '%s'", path.c_str());

    const auto &recs = trace.records();
    if (!recs.empty() &&
        std::fwrite(recs.data(), sizeof(TraceRecord), recs.size(),
                    f.get()) != recs.size()) {
        fatal("short write of trace records to '%s'", path.c_str());
    }

    // Fault injection (--inject-fault=trace-corrupt:<rec>): flip one
    // bit of the chosen record so the loader's validation can be
    // exercised against realistic storage corruption.
    const check::FaultPlan &fault = check::activeFaultPlan();
    if (fault.active(check::FaultKind::TraceCorrupt) &&
        fault.at < recs.size()) {
        TraceRecord bad = recs[fault.at];
        // Flip inside the class byte: offsetof is awkward with the
        // enum member, so corrupt via the raw image.
        unsigned char img[sizeof(TraceRecord)];
        std::memcpy(img, &bad, sizeof(bad));
        img[offsetof(TraceRecord, cls)] ^= 0x80;
        const long off = static_cast<long>(
            sizeof(hdr) + fault.at * sizeof(TraceRecord));
        if (std::fseek(f.get(), off, SEEK_SET) != 0 ||
            std::fwrite(img, sizeof(img), 1, f.get()) != 1) {
            fatal("cannot corrupt record %llu in '%s'",
                  static_cast<unsigned long long>(fault.at),
                  path.c_str());
        }
        warn("injected bit flip into trace record %llu of '%s'",
             static_cast<unsigned long long>(fault.at), path.c_str());
    }

    if (std::fflush(f.get()) != 0 || std::ferror(f.get()))
        fatal("I/O error writing trace file '%s'", path.c_str());
}

InstrTrace
readTraceFile(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        fatal("cannot open trace file '%s'", path.c_str());

    // The header's record count is attacker-/corruption-controlled
    // input; never size an allocation from it without checking it
    // against what the file actually holds.
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        fatal("cannot seek in trace file '%s'", path.c_str());
    const long file_size = std::ftell(f.get());
    if (file_size < 0)
        fatal("cannot measure trace file '%s'", path.c_str());
    if (std::fseek(f.get(), 0, SEEK_SET) != 0)
        fatal("cannot seek in trace file '%s'", path.c_str());

    TraceFileHeader hdr;
    if (static_cast<std::uint64_t>(file_size) < sizeof(hdr) ||
        std::fread(&hdr, sizeof(hdr), 1, f.get()) != 1) {
        fatal("trace file '%s' is truncated (no header)", path.c_str());
    }
    if (hdr.magic != kTraceMagic)
        fatal("trace file '%s' has bad magic", path.c_str());
    if (hdr.version != 1)
        fatal("trace file '%s' has unsupported version %u",
              path.c_str(), hdr.version);
    if (hdr.reserved != 0)
        fatal("trace file '%s' has nonzero reserved header bytes",
              path.c_str());

    const std::uint64_t payload =
        static_cast<std::uint64_t>(file_size) - sizeof(hdr);
    if (payload % sizeof(TraceRecord) != 0) {
        fatal("trace file '%s' is truncated (payload is not a whole "
              "number of records)", path.c_str());
    }
    const std::uint64_t on_disk = payload / sizeof(TraceRecord);
    if (hdr.recordCount != on_disk) {
        fatal("trace file '%s' claims %llu records but holds %llu",
              path.c_str(),
              static_cast<unsigned long long>(hdr.recordCount),
              static_cast<unsigned long long>(on_disk));
    }

    hdr.workloadName[sizeof(hdr.workloadName) - 1] = '\0';
    for (const char *p = hdr.workloadName; *p; ++p) {
        if (!std::isprint(static_cast<unsigned char>(*p))) {
            fatal("trace file '%s' has a corrupt workload name",
                  path.c_str());
        }
    }

    InstrTrace trace(hdr.workloadName);
    trace.records().resize(hdr.recordCount);
    if (hdr.recordCount &&
        std::fread(trace.records().data(), sizeof(TraceRecord),
                   hdr.recordCount, f.get()) != hdr.recordCount) {
        fatal("trace file '%s' is truncated (records)", path.c_str());
    }
    for (std::uint64_t i = 0; i < hdr.recordCount; ++i) {
        if (!recordValid(trace.records()[i])) {
            fatal("trace file '%s': record %llu is corrupt "
                  "(out-of-range class or register)", path.c_str(),
                  static_cast<unsigned long long>(i));
        }
    }
    return trace;
}

} // namespace s64v
