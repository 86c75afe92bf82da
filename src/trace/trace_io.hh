/**
 * @file
 * Trace files. The paper's model consumed instruction traces captured
 * on physical machines; we provide an equivalent persistent format so
 * synthesized traces can be saved, exchanged, and replayed. A trace
 * file is a snapshot-container image (ckpt/snapshot.hh) with one
 * "trace" section: the layout number, the workload name, the record
 * count and the packed TraceRecords.
 */

#ifndef S64V_TRACE_TRACE_IO_HH
#define S64V_TRACE_TRACE_IO_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"

namespace s64v
{

/** Layout of the "trace" section; bumped on any change to it. */
constexpr std::uint32_t kTraceFileLayout = 1;

/**
 * Write @p trace to @p path atomically; fatal() on I/O errors. The
 * image header's model version records the writing build; readers do
 * not check it, since a trace is input, not model state.
 */
void writeTraceFile(const std::string &path, const InstrTrace &trace);

/**
 * Read a trace file written by writeTraceFile(). Any damage (a failed
 * checksum, a truncation, another layout, a record whose class or
 * register fields are out of range) is a clean fatal() naming the
 * file (exit status 1), never a crash, hang or silently different
 * trace. Records are read one at a time; nothing is sized from the
 * record count. The container's 1 GiB cap bounds a file at about
 * 44 M records.
 */
InstrTrace readTraceFile(const std::string &path);

} // namespace s64v

#endif // S64V_TRACE_TRACE_IO_HH
