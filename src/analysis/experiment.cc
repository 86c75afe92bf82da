#include "analysis/experiment.hh"

#include <cstdlib>
#include <utility>

#include "common/config.hh"
#include "common/logging.hh"

namespace s64v
{

namespace
{

std::size_t
envSize(const char *name, std::size_t def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    const std::uint64_t n = parseU64(v, name);
    if (n == 0)
        fatal("%s: expected a positive integer, got '%s'", name, v);
    return static_cast<std::size_t>(n);
}

} // namespace

std::size_t
upRunLength()
{
    return envSize("S64V_INSTRS", 300000);
}

std::size_t
smpRunLength()
{
    return envSize("S64V_SMP_INSTRS", 100000);
}

std::size_t
l2RunLength()
{
    return envSize("S64V_L2_INSTRS", 4000000);
}

MachineVariant::MachineVariant(std::string label_, MachineParams m)
    : label(std::move(label_)),
      build([m = std::move(m),
             label = label](unsigned cpus) -> MachineParams {
          if (m.sys.numCpus != cpus) {
              fatal("grid variant '%s' is a fixed %u-CPU machine but "
                    "the row asks for %u CPUs; construct the variant "
                    "from a builder instead",
                    label.c_str(), m.sys.numCpus, cpus);
          }
          return m;
      })
{
}

MachineVariant::MachineVariant(
    std::string label_, std::function<MachineParams(unsigned)> build_)
    : label(std::move(label_)), build(std::move(build_))
{
}

std::vector<GridRow>
standardRows()
{
    std::vector<GridRow> rows;
    for (const std::string &name : workloadNames())
        rows.push_back({name, name, 1, 0});
    return rows;
}

std::vector<std::vector<exp::PointResult>>
runGrid(const std::vector<GridRow> &rows,
        const std::vector<MachineVariant> &variants,
        const obs::ObsOptions &run, const exp::MetricFn &metric)
{
    exp::Sweep sweep;
    for (const GridRow &row : rows) {
        const std::size_t n = row.instrs != 0
            ? row.instrs
            : (row.cpus > 1 ? smpRunLength() : upRunLength());
        for (const MachineVariant &v : variants) {
            sweep.add(row.label + " / " + v.label, v.build(row.cpus),
                      workloadByName(row.workload), n);
        }
    }
    if (metric)
        sweep.setMetricFn(metric);

    exp::SweepOptions opts;
    opts.run = run;
    std::vector<exp::PointResult> flat = exp::SweepRunner(opts).run(sweep);

    std::vector<std::vector<exp::PointResult>> grid(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        grid[r].reserve(variants.size());
        for (std::size_t v = 0; v < variants.size(); ++v) {
            exp::PointResult &p = flat[r * variants.size() + v];
            if (!p.ok) {
                fatal("grid point '%s' failed: %s", p.label.c_str(),
                      p.error.c_str());
            }
            grid[r].push_back(std::move(p));
        }
    }
    return grid;
}

} // namespace s64v
