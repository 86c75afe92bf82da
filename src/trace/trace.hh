/**
 * @file
 * In-memory instruction traces and the sequential reader the CPU
 * model consumes.
 */

#ifndef S64V_TRACE_TRACE_HH
#define S64V_TRACE_TRACE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace s64v
{

/**
 * A complete in-memory instruction trace for one CPU, plus minimal
 * provenance metadata.
 */
class InstrTrace
{
  public:
    InstrTrace() = default;
    explicit InstrTrace(std::string workload_name)
        : workloadName_(std::move(workload_name)) {}

    void append(const TraceRecord &rec) { records_.push_back(rec); }
    void reserve(std::size_t n) { records_.reserve(n); }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const TraceRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }

    const std::vector<TraceRecord> &records() const { return records_; }

    const std::string &workloadName() const { return workloadName_; }

  private:
    std::string workloadName_;
    std::vector<TraceRecord> records_;
};

/**
 * Sequential reader over an in-memory trace (non-owning view); the
 * fetch unit pulls its records through one of these.
 */
class VectorTraceSource
{
  public:
    explicit VectorTraceSource(const InstrTrace &trace)
        : trace_(&trace) {}

    /** @return false when the trace is exhausted. */
    bool
    peek(TraceRecord &out) const
    {
        if (pos_ >= trace_->size())
            return false;
        out = (*trace_)[pos_];
        return true;
    }

    /** Advance past the current record. */
    void pop() { ++pos_; }
    /** Records consumed so far. */
    std::size_t consumed() const { return pos_; }

    /**
     * Reposition to absolute record index @p pos (checkpoint
     * restore). @p pos == size() is valid: an exhausted source.
     */
    void seek(std::size_t pos) { pos_ = pos; }
    std::size_t size() const { return trace_->size(); }

  private:
    const InstrTrace *trace_;
    std::size_t pos_ = 0;
};

} // namespace s64v

#endif // S64V_TRACE_TRACE_HH
