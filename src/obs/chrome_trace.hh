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
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "cpu/pipeview.hh"

namespace s64v::obs
{

/**
 * Accumulates trace events; render() produces the JSON document. The
 * lanes come from the pipeview rings at the end of the run, so they
 * cover only its last cycles, while memory spans arrive from the
 * start: the writer keeps the latest spans in a ring sized from the
 * lanes and renders those that reach the lanes' window.
 */
class ChromeTraceWriter
{
  public:
    /** pid hosting the shared memory-system tracks. */
    static constexpr int kMemPid = 1000;
    /** Memory spans the ring holds per lane slot. */
    static constexpr std::size_t kSpansPerLaneSlot = 4;

    /**
     * @param lane_slots pipeline records the lanes can hold, all CPUs
     *        together; the ring holds kSpansPerLaneSlot times as many
     *        memory spans.
     */
    explicit ChromeTraceWriter(std::size_t lane_slots);

    /**
     * Get-or-create a named track (thread) under @p pid. Emits the
     * thread_name metadata event on first use.
     */
    unsigned track(int pid, const std::string &name);

    /**
     * A memory-system complete ("X") event spanning [start, end)
     * cycles; when the ring is full it drops its oldest span.
     */
    void span(int pid, unsigned tid, const std::string &name,
              const std::string &cat, Cycle start, Cycle end);

    /**
     * Convert one committed instruction's stage timestamps into
     * nested slices on a per-seq lane track of CPU @p cpu.
     */
    void addPipeRecord(int cpu, const PipeRecord &rec);

    /** Convert every record currently buffered in @p recorder. */
    void addPipeview(int cpu, const PipeviewRecorder &recorder);

    /**
     * The complete {"traceEvents": [...]} document: track metadata,
     * then the memory spans whose last cycle is at or after the first
     * lane's start (all of them without lanes), then the lanes.
     */
    std::string render() const;

    /**
     * Write render() to @p path, warning with the path and the cycle
     * the memory tracks begin at when the ring dropped a span that
     * reaches the lanes' window. @return false on failure.
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

    std::size_t spansCapacity_;
    unsigned nextTid_ = 0;
    std::map<std::pair<int, std::string>, unsigned> tracks_;
    std::vector<Event> meta_;
    std::deque<Event> spans_;
    std::vector<Event> lanes_;
    /** The first lane's start cycle, once there is a lane. */
    std::optional<Cycle> firstLane_;
    /** The latest last cycle of a span the ring dropped, if any. */
    std::optional<Cycle> droppedLast_;
};

} // namespace s64v::obs

#endif // S64V_OBS_CHROME_TRACE_HH
