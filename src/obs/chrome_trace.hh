/**
 * @file
 * Chrome trace_events export: converts pipeline records and memory-
 * system occupancy spans into the JSON format loadable in
 * chrome://tracing and Perfetto — a zoomable alternative to the
 * ASCII pipeview. One simulated cycle maps to one microsecond of
 * trace time; pids group the tracks (one per CPU plus one for the
 * shared memory system).
 */

#ifndef S64V_OBS_CHROME_TRACE_HH
#define S64V_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "cpu/pipeview.hh"

namespace s64v::obs
{

/** Accumulates trace events; render() produces the JSON document. */
class ChromeTraceWriter
{
  public:
    /** pid hosting the shared memory-system tracks. */
    static constexpr int kMemPid = 1000;

    /**
     * @param max_events drop events beyond this bound (keeps long
     *        runs from exhausting memory; writeFile() warns with the
     *        dropped count).
     */
    explicit ChromeTraceWriter(std::size_t max_events = 2'000'000);

    /**
     * Get-or-create a named track (thread) under @p pid. Emits the
     * thread_name metadata event on first use.
     */
    unsigned track(int pid, const std::string &name);

    /** A complete ("X") event spanning [start, end) cycles. */
    void span(int pid, unsigned tid, const std::string &name,
              const std::string &cat, Cycle start, Cycle end);

    /**
     * Convert one committed instruction's stage timestamps into
     * nested slices on a per-seq lane track of CPU @p cpu.
     */
    void addPipeRecord(int cpu, const PipeRecord &rec);

    /** Convert every record currently buffered in @p recorder. */
    void addPipeview(int cpu, const PipeviewRecorder &recorder);

    std::size_t events() const { return events_.size(); }
    std::size_t dropped() const { return dropped_; }

    /** The complete {"traceEvents": [...]} document. */
    std::string render() const;

    /**
     * Write render() to @p path, warning with the path and the count
     * when events were dropped. @return false on failure.
     */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        char ph;            ///< 'X' or 'M'.
        int pid;
        unsigned tid;
        Cycle ts;
        Cycle dur;          ///< X only.
        std::string name;
        std::string cat;
        std::string args;   ///< pre-rendered JSON object, or empty.
    };

    bool admit();

    std::size_t maxEvents_;
    std::size_t dropped_ = 0;
    unsigned nextTid_ = 0;
    std::map<std::pair<int, std::string>, unsigned> tracks_;
    std::vector<Event> events_;
};

} // namespace s64v::obs

#endif // S64V_OBS_CHROME_TRACE_HH
