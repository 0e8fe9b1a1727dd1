#include "workloads.hh"

#include "core/sweep.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace perfbench
{

using namespace rampage;

namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;
constexpr std::uint64_t fourGhz = 4'000'000'000ull;

} // namespace

bool
PointSpec::switchOnMiss() const
{
    return config.family == HierarchyConfig::Family::Paged &&
           config.paged.switchOnMiss;
}

bool
PointSpec::blocking() const
{
    return !switchOnMiss() && config.common().cores == 1;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "table3_sweep", "rampage_128b", "multicore_som"};
    return names;
}

WorkloadSpec
makeWorkloadSpec(const std::string &name, std::uint64_t refs)
{
    WorkloadSpec spec;
    spec.name = name;
    if (name == "table3_sweep") {
        // Table 3: the direct-mapped baseline and RAMpage at every
        // SRAM block/page size, simulated once at 1 GHz and re-priced
        // at each issue rate.  Points are ordered baseline first, as
        // the table's rows are, and run on two sweep workers.
        spec.refs = 6'000'000;
        spec.workers = 2;
        for (const char *family : {"baseline", "rampage"}) {
            for (std::uint64_t size : blockSizeSweep()) {
                PointSpec point;
                point.id = std::string(family) + "/" + formatByteSize(size);
                if (family == std::string("baseline"))
                    point.config = baselineConfig(oneGhz, size);
                else
                    point.config = rampageConfig(oneGhz, size);
                spec.points.push_back(point);
            }
        }
        spec.probePoint = blockSizeSweep().size(); // rampage/128B
    } else if (name == "rampage_128b") {
        spec.refs = 24'000'000;
        spec.points.push_back({"rampage/128B", rampageConfig(oneGhz, 128)});
    } else if (name == "multicore_som") {
        spec.refs = 24'000'000;
        PointSpec point{"rampage/1KB/4GHz/4core/som",
                        rampageConfig(fourGhz, 1024, true)};
        point.config.common().cores = 4;
        spec.points.push_back(point);
    } else {
        throw ConfigError("unknown workload '%s'", name.c_str());
    }
    if (refs > 0)
        spec.refs = refs;
    return spec;
}

SimConfig
pointSimConfig(const PointSpec &point, std::uint64_t refs)
{
    SimConfig sim;
    sim.maxRefs = refs;
    sim.quantumRefs = 120'000;
    sim.insertSwitchTrace = true;
    sim.switchOnMiss = point.switchOnMiss();
    sim.watchdogRefBudget = refs * 8 + 1'000'000;
    return sim;
}

const std::vector<std::uint64_t> &
table3IssueRates()
{
    static const std::vector<std::uint64_t> rates = {
        200'000'000ull, 500'000'000ull, 1'000'000'000ull,
        2'000'000'000ull, 4'000'000'000ull};
    return rates;
}

} // namespace perfbench
