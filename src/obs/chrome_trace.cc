#include "obs/chrome_trace.hh"

#include <cstdio>
#include <fstream>

#include "common/file_util.hh"
#include "common/logging.hh"
#include "isa/instr.hh"
#include "obs/json.hh"

namespace s64v::obs
{

ChromeTraceWriter::ChromeTraceWriter(std::size_t max_events)
    : maxEvents_(max_events)
{
}

bool
ChromeTraceWriter::admit()
{
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return false;
    }
    return true;
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
    events_.push_back(std::move(e));
    return tid;
}

void
ChromeTraceWriter::span(int pid, unsigned tid, const std::string &name,
                        const std::string &cat, Cycle start, Cycle end)
{
    if (!admit())
        return;
    Event e;
    e.ph = 'X';
    e.pid = pid;
    e.tid = tid;
    e.ts = start;
    e.dur = end > start ? end - start : 1;
    e.name = name;
    e.cat = cat;
    events_.push_back(std::move(e));
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

    if (!admit())
        return;
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
    events_.push_back(std::move(e));

    // Nested slice for the execute..complete phase; the containment
    // inside the issue..commit slice makes Perfetto draw it one
    // level deeper on the same lane.
    if (rec.execute >= rec.issue && rec.complete >= rec.execute &&
        rec.complete <= rec.commit)
        span(cpu, tid, "exec", "pipe", rec.execute, rec.complete + 1);
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
    for (const Event &e : events_) {
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
    }
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
    if (dropped_ != 0) {
        warn("Chrome trace '%s' dropped %zu events past its cap of %zu",
             path.c_str(), dropped_, maxEvents_);
    }
    return true;
}

} // namespace s64v::obs
