/**
 * @file
 * Output checks on simulated results: a digest of every simulated
 * statistic, the reference-count identity, and named-stat lookups
 * summed over the per-core `coreN.` prefixes.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <string>

#include "core/simulator.hh"

namespace perfbench
{

/**
 * FNV-1a digest of every SimResult::stats entry (name, kind, integer
 * value, floating value bits, histogram buckets, samples and sum) plus
 * SimResult::elapsedPs.  Entry descriptions are documentation and are
 * left out.  Two runs of the same point must give the same digest.
 */
std::uint64_t statsDigest(const rampage::SimResult &result);

/**
 * Sum of the counter named `name` plus every `coreN.<name>` counter;
 * 0 when none exists.
 */
std::uint64_t sumCounter(const rampage::StatsSnapshot &stats,
                         const std::string &name);

/** Histogram `sum` field of `name` summed the same way. */
std::uint64_t sumHistogram(const rampage::StatsSnapshot &stats,
                           const std::string &name);

/**
 * Simulated-output checks every point must pass: the reference
 * identity sim.refs == sim.trace_refs + sim.overhead_refs, and
 * sim.trace_refs equal to the configured reference budget, and — for
 * a blocking single-core run — elapsed time equal to the event counts
 * priced at the run's issue rate (the cost model's conservation
 * identity, which is also what lets Table 3 re-price one run at every
 * issue rate).  Returns an empty string when they hold, else what
 * failed.
 */
std::string checkResult(const rampage::SimResult &result,
                        std::uint64_t max_refs, bool blocking);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
