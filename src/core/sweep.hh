/**
 * @file
 * Experiment scaffolding shared by the benches, examples and
 * integration tests: canonical system configurations (paper §4),
 * one-call runners that build a hierarchy plus the Table 2 workload
 * and simulate it, and the fault-tolerant SweepRunner that executes
 * whole campaigns point by point with per-point outcomes and
 * checkpoint/resume.
 *
 * The run knobs (scale, rates, jobs, cores, deadline, retries,
 * isolation, audits, faults, observability) come from one table:
 * core/run_settings.hh, listed with defaults in README.md.
 */

#ifndef RAMPAGE_CORE_SWEEP_HH
#define RAMPAGE_CORE_SWEEP_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/factory.hh"
#include "core/run_settings.hh"
#include "core/simulator.hh"
#include "obs/phase_profiler.hh"
#include "util/error.hh"

namespace rampage
{

/** The run scale (runSettings().scale). */
ExperimentScale experimentScale();

/** Issue rates to sweep (runSettings().rates). */
std::vector<std::uint64_t> issueRates();

/** The paper's block/page size sweep: 128 B ... 4 KB. */
std::vector<std::uint64_t> blockSizeSweep();

/** Common parameters at an issue rate (§4.3). */
CommonConfig defaultCommon(std::uint64_t issue_hz);

/** The §4.4 baseline: direct-mapped 4 MB L2. */
ConventionalConfig baselineConfig(std::uint64_t issue_hz,
                                  std::uint64_t l2_block_bytes);

/** The §4.7 system: 2-way random-replacement 4 MB L2. */
ConventionalConfig twoWayConfig(std::uint64_t issue_hz,
                                std::uint64_t l2_block_bytes);

/** The §4.5 RAMpage system at an SRAM page size. */
RampageConfig rampageConfig(std::uint64_t issue_hz,
                            std::uint64_t page_bytes,
                            bool switch_on_miss = false);

/**
 * SimConfig for an explicit (refs, quantum) pair with the runaway
 * watchdog armed and the audit level, fault plan, core count and
 * observability settings taken from runSettings().  Use this instead
 * of building a raw SimConfig whenever a bench or example picks its
 * own scale.
 */
SimConfig armedSimConfig(std::uint64_t refs, std::uint64_t quantum_refs);

/** armedSimConfig() at the runSettings() scale. */
SimConfig defaultSimConfig(bool switch_on_miss = false);

/**
 * Build (via makeHierarchy()), run and report any system on the §4.2
 * workload.  A paged config's switchOnMiss policy overrides the
 * SimConfig's, exactly as a hand-built RAMpage run would set it.
 */
SimResult simulateSystem(const HierarchyConfig &config,
                         const SimConfig &sim);

// ------------------------------------------------------------ SweepRunner

/** How one sweep point ended. */
enum class PointStatus {
    Ok,          ///< simulated to completion this run
    Failed,      ///< raised an error; the campaign continued
    AuditFailed, ///< a model-integrity audit rejected live state
    Skipped,     ///< already completed per the checkpoint manifest
    TimedOut,    ///< cancelled at the per-point wall-clock deadline
    Crashed,     ///< the point's isolated child died on a signal
};

/** Stable lower-case name ("ok", "failed", "audit-failed", ...). */
const char *pointStatusName(PointStatus status);

/** Outcome record for one sweep point. */
struct PointOutcome
{
    std::string id;
    PointStatus status = PointStatus::Failed;
    /** Failure classification; meaningful unless Ok/Skipped. */
    ErrorCategory errorCategory = ErrorCategory::Internal;
    /** Diagnostic message; empty when Ok/Skipped. */
    std::string error;
    /**
     * First violated invariant's stable name ("inclusion.l1",
     * "time.conservation"); empty unless AuditFailed.
     */
    std::string auditInvariant;
    /** Audit scope line ("quantum boundary (...)"); AuditFailed only. */
    std::string auditScope;
    /**
     * Structured audit violations; AuditFailed only.  Together with
     * auditScope this is enough to rebuild the original AuditError
     * verbatim across the --isolate fork boundary.
     */
    std::vector<AuditViolation> auditViolations;
    /** Wall time of this execution (or the checkpointed value). */
    double wallSeconds = 0;
    /**
     * Hierarchy references per second of the *simulate phase* (falling
     * back to wall time when phase profiling saw nothing); 0 unless
     * Ok.  Wall time also covers trace generation, audits and
     * checkpoint I/O, so it is the wrong denominator for a throughput
     * gate — see simulateSeconds().
     */
    double refsPerSecond = 0;
    /**
     * Execution attempts this campaign made for the point (1 for a
     * first-try success; 0 when Skipped).  Retries only happen for
     * transient failures (isRetryableCategory) under
     * Options::maxRetries.
     */
    unsigned attempts = 0;
    /**
     * Hierarchy references the point had executed when the per-point
     * deadline cancelled it; meaningful only when TimedOut.
     */
    std::uint64_t refsAtCancel = 0;
    /**
     * The signal that killed the point's isolated child (SIGSEGV,
     * SIGABRT, SIGKILL...); meaningful only when Crashed.
     */
    int signalNumber = 0;
    /**
     * Post-mortem: the debug ring buffer's tail at the moment of
     * failure (most recent RAMPAGE_DPRINTF events).  Empty unless
     * Failed and tracing was active.
     */
    std::vector<std::string> debugTail;
    /**
     * The exception the point raised, for embedders that want to
     * rethrow a failure with full fidelity (the benches' blocking
     * sweep helper turns a failed bench point back into the error a
     * serial run would have surfaced).  Null unless Failed/AuditFailed.
     */
    std::exception_ptr exception;
    /**
     * Host wall-clock attributed to each sweep-pipeline phase for
     * this point (src/obs/phase_profiler.hh): trace generation,
     * simulation, audits, checkpoint I/O and — for isolated points —
     * the parent-side IPC drain.  Survives the --isolate pipe.
     */
    PhaseSeconds phaseSeconds{};
    /** True when `result` holds a simulation run from this campaign. */
    bool haveResult = false;
    SimResult result;

    /** Host seconds the point spent in Simulator::run proper. */
    double
    simulateSeconds() const
    {
        return phaseSeconds[static_cast<std::size_t>(
            SweepPhase::Simulate)];
    }
};

/** Everything a campaign produced, in add() order. */
struct SweepReport
{
    std::vector<PointOutcome> outcomes;

    std::size_t count(PointStatus status) const;
    std::size_t okCount() const { return count(PointStatus::Ok); }
    std::size_t failedCount() const { return count(PointStatus::Failed); }
    std::size_t auditFailedCount() const
    {
        return count(PointStatus::AuditFailed);
    }
    std::size_t skippedCount() const
    {
        return count(PointStatus::Skipped);
    }
    std::size_t timedOutCount() const
    {
        return count(PointStatus::TimedOut);
    }
    std::size_t crashedCount() const
    {
        return count(PointStatus::Crashed);
    }
    bool
    allOk() const
    {
        return failedCount() == 0 && auditFailedCount() == 0 &&
               timedOutCount() == 0 && crashedCount() == 0;
    }
};

/**
 * Fault-tolerant sweep engine.  Each queued point runs under
 * try/catch: a point that throws (bad trace, invalid configuration,
 * internal bug, watchdog trip) is recorded as Failed with its error
 * category and the campaign continues, so one poisoned point costs
 * one point — never the whole parameter sweep.  On top of that basic
 * containment the runner layers four independent hardening stages:
 *
 *  - Deadlines: with a per-point wall-clock deadline configured
 *    (Options::pointDeadlineSeconds, --point-deadline,
 *    RAMPAGE_DEADLINE) a runaway point is cancelled cooperatively at
 *    the simulator's watchdog seam and recorded as TimedOut with the
 *    reference count it had reached; healthy points are unaffected.
 *
 *  - Retries: a point that fails with a *transient* category
 *    (isRetryableCategory: trace I/O, manifest/telemetry I/O) is
 *    re-executed up to Options::maxRetries times with bounded
 *    exponential backoff.  Deterministic errors (ConfigError,
 *    AuditError) never retry.  The attempt count is recorded in the
 *    outcome and the checkpoint manifest.
 *
 *  - Isolation: with Options::isolate (--isolate, RAMPAGE_ISOLATE=1)
 *    each point runs in a forked child that streams its outcome (and
 *    its post-mortem debug-ring tail) back over a pipe, so a point
 *    that SIGSEGVs, aborts or is OOM-killed becomes a Crashed outcome
 *    carrying the signal number while the rest of the sweep
 *    continues.  Results are serialized bit-exactly (doubles as bit
 *    patterns), so observables match an in-process run byte for byte.
 *
 *  - Crash-consistent checkpointing: see below.
 *
 * With a checkpoint path configured, a versioned, CRC-protected
 * manifest line is appended with a single write(2) and fsync'd after
 * every completed point; re-running the same campaign against the
 * same manifest skips completed points (reported as Skipped) and
 * re-executes only failed or new ones.  A torn final line — the
 * signature of a mid-append SIGKILL or power loss — is detected by
 * its CRC, repaired by truncation, and costs exactly one re-simulated
 * point.  Damaged interior lines are warned about and ignored, so a
 * corrupt checkpoint degrades to re-simulation rather than an error.
 *
 * With jobs > 1 (Options::jobs, --jobs, RAMPAGE_JOBS) independent
 * points execute concurrently on a worker pool while every observable
 * stays equivalent to a serial run:
 *  - outcomes land in add() order, and the per-point status lines are
 *    emitted by the main thread in that order, so stdout/stderr do
 *    not depend on completion order;
 *  - manifest appends are serialized behind a mutex (one fopen/write
 *    critical section per point); line *order* may differ from a
 *    serial run but the line *set* is the same;
 *  - the post-mortem debug ring is thread-local, so a failing point's
 *    tail holds only its own events;
 *  - each point builds its own hierarchy (with its own seeded Rngs)
 *    inside its body and retires it when the body returns, so results
 *    never depend on scheduling and memory stays bounded by the
 *    worker count, not the campaign size.
 * Point bodies must therefore not share mutable state with each
 * other; everything under src/ already satisfies this (points only
 * share the read-only trace roster).
 */
class SweepRunner
{
  public:
    struct Options
    {
        /** Checkpoint manifest path; empty disables checkpointing. */
        std::string checkpointPath;
        /**
         * Emit a progress heartbeat (points simulated this run /
         * points to simulate, skipped count, campaign wall time) when
         * this many seconds have passed since the last one.  The
         * heartbeat is driven by the reporting thread's timed wait,
         * so it fires even while one long point is still running.
         * 0 disables.
         */
        double heartbeatSeconds = 0;
        /**
         * Worker threads executing points concurrently; 1 runs the
         * campaign serially, 0 (the default) takes runSettings().jobs
         * (--jobs, then RAMPAGE_JOBS, then 1).
         */
        unsigned jobs = 0;
        /**
         * Per-point wall-clock deadline in seconds; a point still
         * running at the deadline is cancelled cooperatively and
         * recorded as TimedOut.  0 (the default) takes
         * runSettings().deadlineSeconds (--point-deadline, then
         * RAMPAGE_DEADLINE, then disabled).  Negative disables
         * explicitly, overriding the environment.
         */
        double pointDeadlineSeconds = 0;
        /**
         * Re-executions allowed for a point that failed with a
         * transient (isRetryableCategory) error.  Negative (the
         * default) takes runSettings().retries (--retries, then
         * RAMPAGE_RETRIES, then 0).
         */
        int maxRetries = -1;
        /**
         * First retry backoff in seconds; doubles per attempt, capped
         * at 2 s.  Tests shrink this to keep retry paths fast.
         */
        double retryBackoffSeconds = 0.05;
        /**
         * Run each point in a forked child process (1), in-process
         * (0), or take runSettings().isolate (--isolate, then
         * RAMPAGE_ISOLATE, then in-process) when negative (the
         * default).
         */
        int isolate = -1;
    };

    SweepRunner() = default;
    explicit SweepRunner(const Options &options) : opts(options) {}

    /**
     * Queue one point.  `id` names it in outcomes and the manifest
     * and must be unique within the campaign (ConfigError otherwise).
     */
    void add(const std::string &id, std::function<SimResult()> body);

    std::size_t pointCount() const { return points.size(); }

    /** Execute every queued point, continuing past failures. */
    SweepReport run();

  private:
    struct Point
    {
        std::string id;
        std::function<SimResult()> body;
    };

    /**
     * Effective knob values for one run(), resolved once up front:
     * the Options, with runSettings() filling the sentinels, plus
     * the RAMPAGE_SWEEP_FAULT plan.
     */
    struct Resolved
    {
        unsigned jobs = 1;
        double deadlineSeconds = 0; ///< 0 = no deadline
        unsigned retries = 0;
        double backoffSeconds = 0.05;
        bool isolate = false;
        SweepFaultPlan fault;
    };
    Resolved resolveOptions() const;

    /** id -> checkpointed wall seconds from a previous campaign. */
    std::map<std::string, double> loadManifest() const;
    /** Caller must hold manifestMutex when workers are live. */
    void appendManifest(const PointOutcome &outcome,
                        const SweepFaultPlan &fault) const;

    /**
     * Run one point (worker context): retry loop around a local or
     * isolated attempt, timing, checkpointing.
     */
    PointOutcome executePoint(const Point &point,
                              const Resolved &how) const;
    /** One in-process attempt: deadline arming, try/catch taxonomy. */
    PointOutcome runLocalAttempt(const Point &point,
                                 const Resolved &how) const;
    /** One forked attempt: pipe protocol, signal & hang containment. */
    PointOutcome runIsolatedAttempt(const Point &point,
                                    const Resolved &how) const;
    /** Emit the point's status lines (reporter context, in order). */
    void reportOutcome(const PointOutcome &outcome) const;

    Options opts;
    std::vector<Point> points;
    /** Serializes checkpoint-manifest appends across workers. */
    mutable std::mutex manifestMutex;
};

} // namespace rampage

#endif // RAMPAGE_CORE_SWEEP_HH
