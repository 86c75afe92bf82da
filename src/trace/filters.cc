#include "trace/filters.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "common/bitutil.hh"

namespace s64v
{

InstrTrace
sampleTrace(const InstrTrace &trace, std::size_t skip,
            std::size_t length)
{
    InstrTrace out(trace.workloadName());
    if (skip >= trace.size())
        return out;
    const std::size_t end =
        skip + std::min(length, trace.size() - skip);
    out.reserve(end - skip);
    for (std::size_t i = skip; i < end; ++i)
        out.append(trace[i]);
    return out;
}

TraceSummary
summarizeTrace(const InstrTrace &trace)
{
    TraceSummary s;
    s.instructions = trace.size();
    if (trace.empty())
        return s;

    std::unordered_set<Addr> code_lines, data_lines, branch_pcs;
    std::size_t loads = 0, stores = 0, branches = 0, fp = 0;
    std::size_t cond = 0, taken = 0, priv = 0;

    for (const TraceRecord &r : trace.records()) {
        ++s.classCounts[static_cast<std::size_t>(r.cls)];
        code_lines.insert(alignDown(r.pc, 64));
        if (r.isLoad())
            ++loads;
        if (r.isStore())
            ++stores;
        if (r.isMem())
            data_lines.insert(alignDown(r.ea, 64));
        if (r.isBranch()) {
            ++branches;
            branch_pcs.insert(r.pc);
        }
        if (r.isCondBranch()) {
            ++cond;
            if (r.taken())
                ++taken;
        }
        if (isFpClass(r.cls))
            ++fp;
        if (r.privileged())
            ++priv;
    }

    const double n = static_cast<double>(s.instructions);
    s.loadFraction = loads / n;
    s.storeFraction = stores / n;
    s.branchFraction = branches / n;
    s.fpFraction = fp / n;
    s.takenFraction = cond ? static_cast<double>(taken) / cond : 0.0;
    s.privilegedFraction = priv / n;
    s.distinctCodeLines = code_lines.size();
    s.distinctDataLines = data_lines.size();
    s.distinctBranchPcs = branch_pcs.size();
    return s;
}

std::string
TraceSummary::toString() const
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "instructions     %zu\n"
                  "load fraction    %.4f\n"
                  "store fraction   %.4f\n"
                  "branch fraction  %.4f\n"
                  "fp fraction      %.4f\n"
                  "taken fraction   %.4f\n"
                  "kernel fraction  %.4f\n"
                  "code footprint   %zu KiB\n"
                  "data footprint   %zu KiB\n"
                  "branch sites     %zu\n",
                  instructions, loadFraction, storeFraction,
                  branchFraction, fpFraction, takenFraction,
                  privilegedFraction, distinctCodeLines * 64 / 1024,
                  distinctDataLines * 64 / 1024, distinctBranchPcs);
    return buf;
}

std::string
validateTrace(const InstrTrace &trace)
{
    char buf[160];
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &r = trace[i];
        if (!recordValid(r)) {
            std::snprintf(buf, sizeof(buf),
                          "record %zu: bad class or register id", i);
            return buf;
        }
        if (r.isMem() && (r.size == 0 || r.ea == 0)) {
            std::snprintf(buf, sizeof(buf),
                          "record %zu: memory op without size/ea", i);
            return buf;
        }
        if (r.isBranch() && r.taken() && r.ea == 0) {
            std::snprintf(buf, sizeof(buf),
                          "record %zu: taken branch without target", i);
            return buf;
        }
    }
    return "";
}

} // namespace s64v
