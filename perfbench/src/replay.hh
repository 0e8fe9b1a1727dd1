/**
 * @file
 * Running one simulation point three ways, all through the
 * simulator's public API:
 *
 *  - Driver::Simulator — what sweep::simulateSystem does (with the
 *    benchmark's seed): makeHierarchy, makeWorkload, Simulator::run.
 *    Untraced; the end-to-end metrics come from this path.
 *  - Driver::Forwarded — the same Simulator::run with every
 *    TraceSource wrapped in a forwarder that records a `trace.fill`
 *    span per fill() call, and a `simulator.run` span around the run.
 *  - Driver::Replay — Simulator::run's schedule replayed from outside
 *    (replaySchedule), with a span around every public call it makes:
 *    TraceSource::fill, Hierarchy::runContextSwitchTrace,
 *    Hierarchy::accessBatch and StatsRegistry::snapshot.
 *
 * All three give bit-identical SimResult statistics; the benchmark
 * checks that on every traced run.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "spans.hh"
#include "trace/source.hh"
#include "workloads.hh"

namespace perfbench
{

enum class Driver
{
    Simulator,
    Forwarded,
    Replay,
};

/** Host-time breakdown of one point execution. */
struct PointRun
{
    rampage::SimResult result;
    double wallSeconds = 0;  ///< set-up + run + snapshot
    double setupSeconds = 0; ///< makeHierarchy + makeWorkload
    double runSeconds = 0;   ///< the run loop, trace generation included
    double fillSeconds = 0;  ///< trace generation inside the run
    std::uint64_t refsFilled = 0; ///< references generated (traced only)

    /**
     * Simulate-phase seconds, as sweep::simulateSystem books them:
     * the run minus the trace generation measured inside it.
     */
    double simulateSeconds() const;
};

/**
 * Build the point's hierarchy and workload (seeded with `seed`) and
 * run `refs` benchmark references through `driver`.  `recorder` may be
 * null for Driver::Simulator; the traced drivers need one.  With
 * `translation_cache` false the hierarchy's per-stream translation
 * cache is turned off before the run (statistics are unchanged).
 */
PointRun executePoint(const PointSpec &point, std::uint64_t refs,
                      std::uint64_t seed, Driver driver,
                      SpanRecorder *recorder,
                      bool translation_cache = true);

/**
 * Replay Simulator::run's batched schedule on `hier` from outside:
 * the single-core blocking driver, or the multicore switch-on-miss
 * driver.  Other driver modes throw ConfigError.  Spans go to
 * `recorder` when it is non-null; `refs_filled`, when non-null,
 * receives the number of references generated.
 */
rampage::SimResult
replaySchedule(rampage::Hierarchy &hier,
               std::vector<std::unique_ptr<rampage::TraceSource>> &sources,
               const rampage::SimConfig &cfg, SpanRecorder *recorder,
               std::uint64_t *refs_filled = nullptr);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
