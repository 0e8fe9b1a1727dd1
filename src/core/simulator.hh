/**
 * @file
 * The simulation driver: feeds the multiprogrammed workload through a
 * hierarchy, inserting the context-switch trace at time-slice
 * boundaries (§4.6), and — for RAMpage with context switches on
 * misses — running the timing-coupled schedule where a faulting
 * process blocks on its page transfer while others execute, with the
 * single Rambus channel serializing outstanding transfers.
 */

#ifndef RAMPAGE_CORE_SIMULATOR_HH
#define RAMPAGE_CORE_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/hierarchy.hh"
#include "obs/obs_config.hh"
#include "os/scheduler.hh"
#include "stats/registry.hh"
#include "trace/source.hh"

namespace rampage
{

/** Driver configuration. */
struct SimConfig
{
    /** Benchmark-trace references to simulate. */
    std::uint64_t maxRefs = 24'000'000;
    /** References per time slice (paper: 500 000 at full scale). */
    std::uint64_t quantumRefs = 120'000;
    /** Insert the ~400-reference context-switch trace at each slice. */
    bool insertSwitchTrace = true;
    /**
     * Context-switch on page faults (RAMpage only, §4.6): overlap
     * page transfers with other processes' execution.
     */
    bool switchOnMiss = false;
    /**
     * Runaway-point watchdog: throw InternalError once the hierarchy
     * has processed this many references in total (benchmark plus
     * handler traces).  0 disables the check.  defaultSimConfig()
     * arms it with a generous multiple of maxRefs, so healthy runs
     * are unaffected while a runaway point (e.g. unbounded handler
     * recursion) aborts cleanly instead of hanging a sweep campaign.
     */
    std::uint64_t watchdogRefBudget = 0;
    /**
     * Model-integrity audit level (src/core/audit.hh): Off runs
     * unaudited, Boundaries audits at every quantum boundary and at
     * end-of-run, Paranoid additionally after every miss that reached
     * the L2/SRAM level.  Violations raise AuditError.  Audits are
     * side-effect-free: simulation output is byte-identical at every
     * level.
     */
    AuditLevel auditLevel = AuditLevel::Off;
    /**
     * Model-fault injection spec, "kind[:seed]" ("" injects nothing;
     * see src/core/fault_injection.hh).  The corruption is applied
     * once, at the first audit boundary — after that boundary's audit
     * has passed clean — so a subsequent violation is attributable to
     * the injector.
     */
    std::string faultPlan;
    /**
     * Timeline observability (src/obs/, all off by default and
     * side-effect-free when off).  `traceOutBase` non-empty turns on
     * simulated-time event tracing; the run writes Chrome trace-event
     * JSON to obsRunFilePath(traceOutBase, ".trace.json") — per-point
     * file names under a sweep.  defaultSimConfig()/armedSimConfig()
     * fill these from runSettings() (core/run_settings.hh).
     */
    std::string traceOutBase;
    /** Benchmark refs per interval-stats epoch; 0 disables. */
    std::uint64_t statsIntervalRefs = 0;
    /** Interval JSONL base path (used when statsIntervalRefs > 0). */
    std::string intervalOutBase;
    /** Trace-ring capacity in events (overflow counts as dropped). */
    std::size_t traceRingCapacity = defaultTraceRingCapacity;
    /**
     * CPU cores the built hierarchy should have (factory-level knob,
     * consumed by sweep::simulateSystem before construction — the
     * Simulator itself follows Hierarchy::coreCount()).  0 leaves the
     * hierarchy config's own CommonConfig::cores untouched;
     * defaultSimConfig()/armedSimConfig() fill it from --cores /
     * RAMPAGE_CORES.
     */
    unsigned cores = 0;
};

/** Result of one simulation. */
struct SimResult
{
    /** Elapsed simulated time at the hierarchy's issue rate. */
    Tick elapsedPs = 0;
    /** CPU idle time waiting for transfers (switch-on-miss only). */
    Tick stallPs = 0;
    /** The run's event counts (re-priceable for blocking runs). */
    EventCounts counts;
    /** Scheduler statistics (switch-on-miss only). */
    SchedStats sched;
    /**
     * Frozen named-stats dump: every component's registered counters
     * plus run-level entries (sim.elapsed_ps, sim.seconds and — for
     * switch-on-miss runs — sim.stall_ps and the sched.* counters).
     * Self-contained: remains valid after the hierarchy is destroyed.
     */
    StatsSnapshot stats;
    std::string systemName;
    std::uint64_t issueHz = 0;
    /**
     * Timeline artefacts this run produced (empty when the feature was
     * off or the write failed): the Chrome trace-event JSON and the
     * per-epoch interval JSONL.  Sweep campaigns carry these across
     * the --isolate pipe so the parent can report every per-point file.
     */
    std::string traceFile;
    std::string intervalFile;

    /**
     * Host wall-clock seconds the run spent inside TraceSource::fill()
     * — lazy synthetic trace generation interleaved with simulation.
     * The sweep harness re-attributes this to the trace_gen phase so
     * the simulate phase (the denominator of refs_per_sec) prices
     * simulation alone, as documented.  Every run fills its chunks
     * through the same instrumented call, so traced, interval-stats
     * and paranoid-audited runs attribute generation the same way.
     */
    double traceGenSeconds = 0;

    /** Elapsed seconds, as the paper's tables report. */
    double seconds() const;
};

/** Feeds a workload through one hierarchy. */
class Simulator
{
  public:
    /**
     * @param hierarchy the system under test (not owned).
     * @param workload the trace streams (owned); exhausted streams
     *        are rewound and replayed.
     */
    Simulator(Hierarchy &hierarchy,
              std::vector<std::unique_ptr<TraceSource>> workload,
              const SimConfig &config);

    /**
     * Run to completion and report.  One driver serves every core
     * count and both schedules: per-core run queues over per-core
     * trace sources (source i on core i % N), a deterministic
     * least-advanced-core-first interleave in chunks of up to 4096
     * references (core id breaks ties), per-core switch-on-miss
     * schedulers, and the shared transfer bus serializing every
     * core's DRAM traffic (MemoryBackend-style busFreeAt occupancy).
     * Blocking-mode audits check the *globally priced* time — with
     * several cores the per-core clocks include bus-contention waits
     * the event counts deliberately do not price.
     */
    SimResult run();

  private:
    /**
     * Fill `buf` with exactly `n` references from stream `index`,
     * rewinding and replaying at end-of-stream.  The wall-clock it
     * consumes is accumulated into SimResult::traceGenSeconds (one
     * clock pair per multi-thousand-reference chunk).
     */
    void fillRefs(std::size_t index, MemRef *buf, std::size_t n);

    double fillSeconds = 0; ///< see SimResult::traceGenSeconds

    /**
     * True when a chunk can go to Hierarchy::accessBatch() whole: no
     * per-reference observability (timeline tracing, interval stats)
     * and no per-miss paranoid audits.  Boundary-level audits and
     * fault injection are chunk-compatible (both fire at quantum/miss
     * boundaries, which chunks never cross).
     */
    bool fastLoopEligible(const Auditor &auditor) const;

    /**
     * Per-reference cooperative-stop seam: polls the thread's point
     * deadline (throws TimeoutError, src/core/deadline.hh) and
     * enforces SimConfig::watchdogRefBudget (throws InternalError).
     */
    void checkWatchdog() const;

    Hierarchy &hier;
    std::vector<std::unique_ptr<TraceSource>> sources;
    SimConfig cfg;
};

} // namespace rampage

#endif // RAMPAGE_CORE_SIMULATOR_HH
