#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cstdio>

#include "common/file_util.hh"
#include "common/logging.hh"
#include "isa/instr.hh"
#include "obs/json.hh"

namespace s64v::obs
{

ChromeTraceWriter::ChromeTraceWriter(std::size_t lane_slots)
    : spansCapacity_(kSpansPerLaneSlot *
                     std::max<std::size_t>(lane_slots, 1))
{
}

unsigned
ChromeTraceWriter::track(int pid, const std::string &name)
{
    auto [it, inserted] = tracks_.try_emplace({pid, name}, 0);
    if (!inserted)
        return it->second;
    const unsigned tid = nextTid_++;
    it->second = tid;
    // thread_name metadata so the viewer labels the track.
    Event e;
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.ts = 0;
    e.dur = 0;
    e.name = "thread_name";
    JsonWriter w;
    w.beginObject();
    w.field("name", name);
    w.end();
    e.args = w.str();
    meta_.push_back(std::move(e));
    return tid;
}

void
ChromeTraceWriter::span(int pid, unsigned tid, const std::string &name,
                        const std::string &cat, Cycle start, Cycle end)
{
    if (spans_.size() == spansCapacity_) {
        const Event &oldest = spans_.front();
        droppedLast_ = std::max(droppedLast_.value_or(0),
                                oldest.ts + oldest.dur - 1);
        spans_.pop_front();
    }
    spans_.push_back({'X', pid, tid, start,
                      end > start ? end - start : 1, name, cat, {}});
}

void
ChromeTraceWriter::addPipeRecord(int cpu, const PipeRecord &rec)
{
    // Eight lanes per CPU keep concurrent instructions on separate
    // rows, like the pipeview's one-row-per-instruction layout.
    constexpr unsigned kLanes = 8;
    const unsigned lane = static_cast<unsigned>(rec.seq % kLanes);
    const unsigned tid =
        track(cpu, "lane" + std::to_string(lane));

    char name[64];
    std::snprintf(name, sizeof(name), "%s 0x%llx", className(rec.cls),
                  static_cast<unsigned long long>(rec.pc));

    firstLane_ = std::min(firstLane_.value_or(rec.issue), rec.issue);
    Event e;
    e.ph = 'X';
    e.pid = cpu;
    e.tid = tid;
    e.ts = rec.issue;
    e.dur = rec.commit > rec.issue ? rec.commit - rec.issue + 1 : 1;
    e.name = name;
    e.cat = "pipe";
    JsonWriter w;
    w.beginObject();
    w.field("seq", rec.seq);
    w.field("dispatch", static_cast<std::uint64_t>(rec.dispatch));
    w.field("execute", static_cast<std::uint64_t>(rec.execute));
    w.field("complete", static_cast<std::uint64_t>(rec.complete));
    w.field("replays",
            static_cast<std::uint64_t>(rec.replays));
    w.end();
    e.args = w.str();
    lanes_.push_back(std::move(e));

    // Nested slice for the execute..complete phase; the containment
    // inside the issue..commit slice makes Perfetto draw it one
    // level deeper on the same lane.
    if (rec.execute >= rec.issue && rec.complete >= rec.execute &&
        rec.complete <= rec.commit)
        lanes_.push_back({'X', cpu, tid, rec.execute,
                          rec.complete + 1 - rec.execute, "exec", "pipe",
                          {}});
}

void
ChromeTraceWriter::addPipeview(int cpu,
                               const PipeviewRecorder &recorder)
{
    for (const PipeRecord &rec : recorder.snapshot())
        addPipeRecord(cpu, rec);
}

std::string
ChromeTraceWriter::render() const
{
    JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    auto put = [&w](const Event &e) {
        w.beginObject();
        w.field("ph", std::string(1, e.ph));
        w.field("pid", static_cast<std::int64_t>(e.pid));
        w.field("tid", static_cast<std::uint64_t>(e.tid));
        w.field("ts", static_cast<std::uint64_t>(e.ts));
        w.field("name", e.name);
        if (!e.cat.empty())
            w.field("cat", e.cat);
        if (e.ph == 'X')
            w.field("dur", static_cast<std::uint64_t>(e.dur));
        if (!e.args.empty())
            w.raw("args", e.args);
        w.end();
    };
    for (const Event &e : meta_)
        put(e);
    const Cycle from = firstLane_.value_or(0);
    for (const Event &e : spans_) {
        if (e.ts + e.dur - 1 >= from)
            put(e);
    }
    for (const Event &e : lanes_)
        put(e);
    w.end();
    w.end();
    std::string out = w.str();
    return out;
}

bool
ChromeTraceWriter::writeFile(const std::string &path) const
{
    std::string err;
    if (!atomicWriteFile(path, render() + '\n', &err)) {
        warn("cannot write Chrome trace to '%s': %s", path.c_str(),
             err.c_str());
        return false;
    }
    if (droppedLast_ && *droppedLast_ >= firstLane_.value_or(0)) {
        warn("Chrome trace '%s': the memory-span ring wrapped inside "
             "the lanes' window; the memory tracks begin at cycle %llu",
             path.c_str(),
             static_cast<unsigned long long>(*droppedLast_ + 1));
    }
    return true;
}

} // namespace s64v::obs
