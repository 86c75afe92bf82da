#include "obs/stats_export.hh"

#include <fstream>

#include "common/file_util.hh"
#include "common/logging.hh"
#include "sim/system.hh"

namespace s64v::obs
{

void
writeDistribution(JsonWriter &w, const stats::Distribution &d)
{
    w.field("count", d.count());
    w.field("sum", d.sum());
    w.field("min", d.min());
    w.field("max", d.max());
    w.field("mean", d.mean());
    w.field("stddev", d.stddev());
}

void
writeHistogram(JsonWriter &w, const stats::Histogram &h)
{
    writeDistribution(w, h.dist());
    w.field("lo", h.lo());
    w.field("hi", h.hi());
    w.field("bucket_width", h.bucketWidth());
    w.beginArray("buckets");
    for (unsigned i = 0; i < h.numBuckets(); ++i)
        w.value(h.bucketCount(i));
    w.end();
    w.field("underflow", h.underflow());
    w.field("overflow", h.overflow());
}

void
StatsExporter::beginGroup(const stats::Group &g)
{
    if (!childrenOpen_.empty())
        sealStats(); // we are a child: parent's stats are finished.
    w_.beginObject();
    w_.field("name", g.localName());
    w_.field("path", g.path());
    w_.beginObject("stats");
    childrenOpen_.push_back(false);
}

void
StatsExporter::sealStats()
{
    if (!childrenOpen_.back()) {
        w_.end(); // close "stats".
        w_.beginArray("groups");
        childrenOpen_.back() = true;
    }
}

void
StatsExporter::endGroup(const stats::Group &g)
{
    (void)g;
    sealStats();
    w_.end(); // close "groups".
    w_.end(); // close the group object.
    childrenOpen_.pop_back();
}

void
StatsExporter::visitScalar(const stats::Group &g,
                           const std::string &name,
                           const std::string &desc,
                           const stats::Scalar &s)
{
    (void)g;
    w_.beginObject(name);
    w_.field("type", "scalar");
    w_.field("value", s.value());
    w_.field("desc", desc);
    w_.end();
}

void
StatsExporter::visitFormula(const stats::Group &g,
                            const std::string &name,
                            const std::string &desc, double value)
{
    (void)g;
    w_.beginObject(name);
    w_.field("type", "formula");
    w_.field("value", value);
    w_.field("desc", desc);
    w_.end();
}

void
StatsExporter::visitDistribution(const stats::Group &g,
                                 const std::string &name,
                                 const std::string &desc,
                                 const stats::Distribution &d)
{
    (void)g;
    w_.beginObject(name);
    w_.field("type", "distribution");
    writeDistribution(w_, d);
    w_.field("desc", desc);
    w_.end();
}

void
StatsExporter::visitHistogram(const stats::Group &g,
                              const std::string &name,
                              const std::string &desc,
                              const stats::Histogram &h)
{
    (void)g;
    w_.beginObject(name);
    w_.field("type", "histogram");
    writeHistogram(w_, h);
    w_.field("desc", desc);
    w_.end();
}

std::string
exportStatsJson(const stats::Group &root, const SimResult *result,
                std::uint64_t seed)
{
    JsonWriter w;
    StatsExporter exporter(w);
    root.visit(exporter);
    if (!result)
        return w.str();

    JsonWriter run;
    run.beginObject();
    run.field("cycles", std::uint64_t{result->cycles});
    run.field("instructions", result->instructions);
    run.field("measured", result->measured);
    run.field("ipc", result->ipc);
    run.field("warmup_end_cycle",
              std::uint64_t{result->warmupEndCycle});
    run.field("hit_cycle_cap", result->hitCycleCap);
    run.field("interrupted", result->interrupted);
    if (seed != ObsOptions::kUnset)
        run.field("seed", seed);
    run.end();

    // Splice the run outcome in as the first key of the top-level
    // group object; every existing key keeps its place, so consumers
    // of the name/stats/groups schema are unaffected.
    const std::string &tree = w.str();
    return "{\"run\": " + run.str() + ", " + tree.substr(1);
}

bool
writeStatsJson(const stats::Group &root, const std::string &path,
               const SimResult *result, std::uint64_t seed)
{
    std::string err;
    if (!atomicWriteFile(path, exportStatsJson(root, result, seed) + '\n',
                         &err)) {
        warn("cannot write stats JSON to '%s': %s", path.c_str(),
             err.c_str());
        return false;
    }
    return true;
}

} // namespace s64v::obs
