#include "exp/trace_pool.hh"

#include "common/logging.hh"
#include "workload/generator.hh"

namespace s64v::exp
{

const TracePool::TraceSet &
TracePool::acquire(const WorkloadProfile &profile, unsigned num_cpus,
                   std::size_t instrs)
{
    if (num_cpus == 0)
        fatal("TracePool::acquire: zero CPUs");
    if (instrs == 0)
        fatal("TracePool::acquire: zero-length trace");

    const Key key{profile.name, profile.seed, num_cpus, instrs};
    auto it = pool_.find(key);
    if (it != pool_.end())
        return it->second;

    TraceGenerator gen(profile, num_cpus);
    TraceSet set;
    set.reserve(num_cpus);
    for (CpuId cpu = 0; cpu < num_cpus; ++cpu) {
        set.push_back(std::make_shared<const InstrTrace>(
            gen.generate(instrs, cpu)));
    }
    return pool_.emplace(key, std::move(set)).first->second;
}

} // namespace s64v::exp
