/**
 * @file
 * Statistics export: renders a stats::Group tree as a JSON document,
 * the one rendering of the tree. --stats-json writes it, and every
 * identity check (engines, checkpoint restore, the SameBytes pins)
 * compares it. The shape mirrors the group nesting:
 *
 *   {"name": "sim",
 *    "stats": {"committed": {"type": "scalar", "value": 1, ...},
 *              "window_occupancy": {"type": "histogram", ...}},
 *    "groups": [ ...child groups, same shape... ]}
 */

#ifndef S64V_OBS_STATS_EXPORT_HH
#define S64V_OBS_STATS_EXPORT_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/run_obs.hh"

namespace s64v
{
struct SimResult;
} // namespace s64v

namespace s64v::obs
{

/**
 * Visitor that renders every stat kind into a JsonWriter. Usable
 * standalone when the caller wants to embed the group tree inside a
 * larger document.
 */
class StatsExporter : public stats::Visitor
{
  public:
    explicit StatsExporter(JsonWriter &w) : w_(w) {}

    void beginGroup(const stats::Group &g) override;
    void endGroup(const stats::Group &g) override;
    void visitScalar(const stats::Group &g, const std::string &name,
                     const std::string &desc,
                     const stats::Scalar &s) override;
    void visitFormula(const stats::Group &g, const std::string &name,
                      const std::string &desc, double value) override;
    void visitDistribution(const stats::Group &g,
                           const std::string &name,
                           const std::string &desc,
                           const stats::Distribution &d) override;
    void visitHistogram(const stats::Group &g, const std::string &name,
                        const std::string &desc,
                        const stats::Histogram &h) override;

  private:
    /** Close the "stats" object / open "groups" before a child. */
    void sealStats();

    JsonWriter &w_;
    /** Per open group: has its "groups" array been opened yet? */
    std::vector<bool> childrenOpen_;
};

/**
 * Render @p root (and children) as a standalone JSON document. When
 * @p result is non-null, a "run" object is spliced in as the first
 * key of the top-level group — cycles, instructions, IPC, and the
 * hit_cycle_cap / interrupted flags — so a maxCycles-capped or
 * signal-stopped run is machine-distinguishable from a clean finish.
 * A @p seed other than ObsOptions::kUnset (the run's --seed=) is
 * stamped into that object as "seed".
 */
std::string exportStatsJson(const stats::Group &root,
                            const SimResult *result = nullptr,
                            std::uint64_t seed = ObsOptions::kUnset);

/**
 * Write exportStatsJson(@p root, @p result, @p seed) to @p path.
 * @return false (with a warning) if the file cannot be written.
 */
bool writeStatsJson(const stats::Group &root, const std::string &path,
                    const SimResult *result = nullptr,
                    std::uint64_t seed = ObsOptions::kUnset);

/** Serialize a distribution as an object under @p key. */
void writeDistribution(JsonWriter &w, const stats::Distribution &d);

/** Serialize a histogram's layout, buckets, and moments. */
void writeHistogram(JsonWriter &w, const stats::Histogram &h);

} // namespace s64v::obs

#endif // S64V_OBS_STATS_EXPORT_HH
