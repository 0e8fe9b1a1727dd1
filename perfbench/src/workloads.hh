/**
 * @file
 * The benchmark's named workloads: which simulated systems run, at
 * what reference budget, on how many sweep workers.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "core/simulator.hh"

namespace perfbench
{

/** The paper-table workload seed (makeWorkload's default salt). */
constexpr std::uint64_t defaultSeed = 0;
/**
 * Held-out seed: not used while tuning the benchmark; a performance
 * claim made on the default seed must also hold here.
 */
constexpr std::uint64_t heldOutSeed = 97;

/** One simulated system of a workload. */
struct PointSpec
{
    std::string id;
    rampage::HierarchyConfig config;

    /** Switch-on-miss point (the driver overlaps page transfers). */
    bool switchOnMiss() const;
    /** Single-core point without switch-on-miss. */
    bool blocking() const;
};

/** A named workload. */
struct WorkloadSpec
{
    std::string name;
    std::vector<PointSpec> points;
    /** Benchmark-trace references per point. */
    std::uint64_t refs = 0;
    /** SweepRunner workers for the timed runs. */
    unsigned workers = 1;
    /**
     * Point the traced run's component replays and translation-cache
     * replay use (the layers the workload is chosen to stress).
     */
    std::size_t probePoint = 0;
};

/** Names of every workload, in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * The workload called `name` (ConfigError when unknown).  `refs` > 0
 * overrides the per-point reference budget (small-scale tests).
 */
WorkloadSpec makeWorkloadSpec(const std::string &name,
                              std::uint64_t refs = 0);

/**
 * Driver configuration of a point: the Table 3 schedule (120 k-ref
 * quanta, context-switch trace on), no audits, no timeline output,
 * and a watchdog budget armed as the paper benches arm it.
 */
rampage::SimConfig pointSimConfig(const PointSpec &point,
                                  std::uint64_t refs);

/** Issue rates Table 3 re-prices every blocking run at (§4.3). */
const std::vector<std::uint64_t> &table3IssueRates();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
