#include "core/simulator.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "core/deadline.hh"
#include "core/fault_injection.hh"
#include "obs/interval_stats.hh"
#include "obs/trace_session.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

namespace
{

/**
 * References per chunk of the run loop: large enough to amortize the
 * per-chunk virtual calls (one fill, one accessBatch) and loop
 * bookkeeping, small enough that the buffer stays cache-resident and
 * the watchdog/deadline polls keep reference-scale granularity.
 */
constexpr std::uint64_t batchRefs = 4096;

/**
 * Per-run observability scope: builds the trace session and interval
 * writer a SimConfig asks for, installs the session as the thread's
 * active one so component emission seams see it, and guarantees the
 * thread-local is cleared on every exit path (including a thrown
 * TimeoutError/AuditError mid-run).
 */
class ObsScope
{
  public:
    ObsScope(const SimConfig &cfg, const StatsRegistry &registry)
    {
        if (!cfg.traceOutBase.empty()) {
            traceFile =
                obsRunFilePath(cfg.traceOutBase, ".trace.json");
            session =
                std::make_unique<TraceSession>(cfg.traceRingCapacity);
            setActiveTraceSession(session.get());
        }
        if (cfg.statsIntervalRefs > 0) {
            std::string base = cfg.intervalOutBase.empty()
                                   ? std::string("rampage")
                                   : cfg.intervalOutBase;
            intervalFile = obsRunFilePath(base, ".intervals.jsonl");
            intervals = std::make_unique<IntervalStatsWriter>(
                &registry, intervalFile, cfg.statsIntervalRefs);
        }
    }

    ~ObsScope()
    {
        if (session)
            setActiveTraceSession(nullptr);
    }

    /** Advance the trace clock to the simulated now. */
    void
    setNow(Tick now)
    {
        if (session)
            session->setNow(now);
    }

    /** Sample an interval epoch when a boundary was crossed. */
    void
    maybeSample(std::uint64_t refs_executed, Tick now)
    {
        if (intervals)
            intervals->maybeSample(refs_executed, now);
    }

    /**
     * End-of-run bookkeeping: flush the final interval epoch, write
     * the trace file, and record the artefact paths plus the
     * sim.trace.* / sim.interval.* counters into the result.  Only
     * touches the result when a facility was on, so disabled runs
     * stay byte-identical.
     */
    void
    finish(SimResult &result, std::uint64_t refs_executed, Tick now)
    {
        if (intervals) {
            intervals->finish(refs_executed, now);
            result.stats.addCounter("sim.interval.epochs",
                                    "interval-stats epochs written",
                                    intervals->epochs());
            if (!intervals->failed())
                result.intervalFile = intervalFile;
        }
        if (session) {
            result.stats.addCounter("sim.trace.events",
                                    "timeline events emitted",
                                    session->emitted());
            result.stats.addCounter(
                "sim.trace.dropped",
                "timeline events dropped (ring full)",
                session->dropped());
            if (session->writeChromeTrace(traceFile))
                result.traceFile = traceFile;
        }
    }

  private:
    std::unique_ptr<TraceSession> session;
    std::unique_ptr<IntervalStatsWriter> intervals;
    std::string traceFile;
    std::string intervalFile;
};

} // namespace

double
SimResult::seconds() const
{
    return static_cast<double>(elapsedPs) / psPerSec;
}

Simulator::Simulator(Hierarchy &hierarchy,
                     std::vector<std::unique_ptr<TraceSource>> workload,
                     const SimConfig &config)
    : hier(hierarchy), sources(std::move(workload)), cfg(config)
{
    RAMPAGE_ASSERT(!sources.empty(), "simulator needs a workload");
    RAMPAGE_ASSERT(cfg.quantumRefs > 0, "quantum must be positive");
    parseFaultPlan(cfg.faultPlan); // reject bad specs before running
    if (cfg.watchdogRefBudget == 0)
        warnOnce("watchdog disabled (SimConfig::watchdogRefBudget is "
                 "0): a runaway point will hang instead of aborting; "
                 "defaultSimConfig()/armedSimConfig() arm it");
}

void
Simulator::fillRefs(std::size_t index, MemRef *buf, std::size_t n)
{
    auto fill_start = std::chrono::steady_clock::now();
    std::size_t got = 0;
    while (got < n) {
        got += sources[index]->fill(buf + got, n - got);
        if (got < n) {
            // End-of-stream mid-buffer: rewind and replay.
            sources[index]->reset();
            if (!sources[index]->next(buf[got]))
                throw InternalError(
                    "trace source '%s' empty after reset",
                    sources[index]->name().c_str());
            ++got;
        }
    }
    fillSeconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - fill_start)
                       .count();
}

bool
Simulator::fastLoopEligible(const Auditor &auditor) const
{
    // Timeline tracing and interval stats need per-reference
    // setNow()/maybeSample() calls; paranoid audits fire on every
    // L2/SRAM miss.  All other machinery — boundary audits, fault
    // injection, the watchdog and deadline polls — operates at chunk
    // or boundary granularity and is preserved exactly.
    return cfg.traceOutBase.empty() && cfg.statsIntervalRefs == 0 &&
           !auditor.paranoid();
}

void
Simulator::checkWatchdog() const
{
    // The per-point deadline shares the watchdog's per-reference
    // seam: both are cooperative "stop this point" checks, one on
    // simulated work, one on wall time.
    pollPointDeadline(hier.counts().refs);
    if (cfg.watchdogRefBudget == 0)
        return;
    std::uint64_t processed = hier.counts().refs;
    if (processed > cfg.watchdogRefBudget)
        throw InternalError(
            "watchdog: %llu hierarchy references processed against a "
            "budget of %llu; aborting a runaway point",
            static_cast<unsigned long long>(processed),
            static_cast<unsigned long long>(cfg.watchdogRefBudget));
}

SimResult
Simulator::run()
{
    const unsigned ncores = hier.coreCount();
    if (sources.size() < ncores)
        throw ConfigError(
            "multicore run needs at least one trace source per core "
            "(%u cores, %zu sources)",
            ncores, sources.size());

    Auditor auditor(cfg.auditLevel);
    FaultInjector injector(parseFaultPlan(cfg.faultPlan));
    ObsScope obs(cfg, hier.statsRegistry());

    // Core scheduling is chunk-granular: every loop iteration hands
    // the least-advanced core up to batchRefs of work, whatever the
    // audit/observability level.  Chunks never cross a quantum
    // boundary and (switch-on-miss) end at the first deferred fault,
    // so the boundary machinery below runs exactly where a
    // per-reference loop would run it.  When a per-reference facility
    // is on (paranoid audits, tracing, interval stats) access_each
    // walks the chunk one reference at a time *inside* the iteration,
    // so those facilities regain per-reference granularity without
    // perturbing the schedule — runs are byte-identical at every
    // audit and observability level.
    const bool fast_loop = fastLoopEligible(auditor);

    // A chunk the switch-on-miss path cuts short at a fault leaves
    // unconsumed references behind; each source keeps a persistent
    // buffer drained strictly in order, so what a fault leaves over
    // is simply what that process runs next time it is scheduled.
    struct Buffered
    {
        std::vector<MemRef> refs;
        std::size_t pos = 0;
    };
    std::vector<Buffered> bufs(sources.size());

    struct CoreRun
    {
        std::vector<std::size_t> srcs; ///< global source indices
        std::size_t current = 0;       ///< local rotation (blocking)
        std::uint64_t inSlice = 0;     ///< blocking slice progress
        std::unique_ptr<Scheduler> sched; ///< switch-on-miss only
        Tick now = 0;                  ///< this core's clock
    };
    std::vector<CoreRun> cores(ncores);
    // Sources round-robin across cores: source i runs on core i % N.
    for (std::size_t i = 0; i < sources.size(); ++i)
        cores[i % ncores].srcs.push_back(i);
    if (cfg.switchOnMiss)
        for (CoreRun &core : cores)
            core.sched = std::make_unique<Scheduler>(
                core.srcs.size(), cfg.quantumRefs);

    // Globally priced time: every cpuPs/deferPs increment, summed
    // across cores.  The blocking conservation identity
    // (elapsed == totalTimePs(counts, issueHz)) holds for this sum —
    // the per-core clocks additionally carry bus-contention waits the
    // event counts deliberately do not price.
    Tick priced = 0;
    // Shared transfer bus (the single Rambus channel, §2.4 models no
    // pipelining of references): one core's page transfer or miss
    // traffic delays every other core's.
    Tick bus_free_at = 0;
    Tick bus_stall = 0;
    std::uint64_t audited_misses = hier.counts().l2Misses;
    std::uint64_t executed = 0;

    // The per-reference walk over one chunk: returns what
    // accessBatch(refs, n, stop_on_deferred_fault) returns and stops
    // at the same reference.  `now` is the core clock at the chunk
    // start; `audit_miss(at)` is the mode's paranoid audit, run after
    // every reference that reached the L2/SRAM level.
    auto access_each = [&](const MemRef *refs, std::size_t n,
                           bool stop_on_deferred_fault, Tick now,
                           auto &&audit_miss) {
        BatchOutcome out;
        while (out.consumed < n) {
            obs.setNow(now + out.cpuPs + out.deferPs);
            AccessOutcome one = hier.access(refs[out.consumed]);
            ++out.consumed;
            out.cpuPs += one.cpuPs;
            bool stop = stop_on_deferred_fault && one.pageFault &&
                        one.deferPs > 0;
            // A switch-on-miss fault's transfer overlaps other
            // processes' execution: it never advances this clock.
            if (!stop)
                out.deferPs += one.deferPs;
            Tick at = now + out.cpuPs + out.deferPs;
            obs.maybeSample(executed + out.consumed, at);
            if (auditor.paranoid() &&
                hier.counts().l2Misses != audited_misses) {
                audited_misses = hier.counts().l2Misses;
                audit_miss(at);
            }
            if (stop) {
                out.deferPs = one.deferPs;
                out.pageFault = true;
                break;
            }
        }
        return out;
    };

    if (cfg.switchOnMiss && cfg.insertSwitchTrace) {
        // Every core boots into its first process.
        for (unsigned c = 0; c < ncores; ++c) {
            hier.activateCore(static_cast<CoreId>(c));
            Tick t = hier.runContextSwitchTrace();
            cores[c].now += t;
            priced += t;
        }
    }

    std::vector<MemRef> scratch(batchRefs); // blocking-mode fill buffer

    while (executed < cfg.maxRefs) {
        checkWatchdog();
        // Deterministic interleave: the least-advanced core runs the
        // next chunk of work; the lowest core id breaks ties.
        unsigned k = 0;
        for (unsigned c = 1; c < ncores; ++c)
            if (cores[c].now < cores[k].now)
                k = c;
        CoreRun &core = cores[k];
        hier.activateCore(static_cast<CoreId>(k));
        obs.setNow(core.now);

        if (!cfg.switchOnMiss) {
            if (core.inSlice == 0 && cfg.insertSwitchTrace) {
                Tick t = hier.runContextSwitchTrace();
                RAMPAGE_TRACE_EVENT(ContextSwitch, t, 0, osPid);
                core.now += t;
                priced += t;
                obs.setNow(core.now);
            }
            std::uint64_t n = std::min(
                {cfg.maxRefs - executed,
                 cfg.quantumRefs - core.inSlice, batchRefs});
            fillRefs(core.srcs[core.current], scratch.data(),
                     static_cast<std::size_t>(n));
            Tick dram_before = hier.counts().dramPs;
            BatchOutcome out =
                fast_loop
                    ? hier.accessBatch(scratch.data(),
                                       static_cast<std::size_t>(n),
                                       false)
                    : access_each(scratch.data(),
                                  static_cast<std::size_t>(n), false,
                                  core.now, [&](Tick at) {
                                      auditor.auditBlocking(
                                          hier, priced + (at - core.now),
                                          "L2/SRAM miss");
                                  });
            Tick spent = out.cpuPs + out.deferPs;
            core.now += spent;
            priced += spent;
            executed += n;
            core.inSlice += n;

            // Bus occupancy: the chunk's DRAM time must start after
            // the bus frees; a busy bus stalls this core (wall-clock
            // only — priced time stays the conservation identity's).
            Tick dram_ps = hier.counts().dramPs - dram_before;
            if (ncores > 1 && dram_ps > 0) {
                Tick start_want = core.now - dram_ps;
                if (bus_free_at > start_want) {
                    Tick wait = bus_free_at - start_want;
                    core.now += wait;
                    bus_stall += wait;
                }
                bus_free_at = core.now;
            }

            if (core.inSlice >= cfg.quantumRefs) {
                core.inSlice = 0;
                core.current = (core.current + 1) % core.srcs.size();
                // Audit the boundary first, then corrupt: the planned
                // fault lands on provably clean state, so the
                // violation the next audit raises is the injector's.
                auditor.auditBlocking(hier, priced, "quantum boundary");
                if (injector.pending())
                    injector.apply(hier);
            }
            continue;
        }

        Scheduler &sched = *core.sched;
        std::size_t src = core.srcs[sched.current()];
        Buffered &buf = bufs[src];
        if (buf.pos == buf.refs.size()) {
            buf.refs.resize(batchRefs);
            fillRefs(src, buf.refs.data(), batchRefs);
            buf.pos = 0;
        }
        std::uint64_t n = std::min(
            {cfg.maxRefs - executed, sched.refsUntilQuantum(),
             static_cast<std::uint64_t>(buf.refs.size() - buf.pos)});
        const MemRef *refs = buf.refs.data() + buf.pos;
        BatchOutcome out =
            fast_loop
                ? hier.accessBatch(refs, static_cast<std::size_t>(n),
                                   true)
                : access_each(refs, static_cast<std::size_t>(n), true,
                              core.now, [&](Tick at) {
                                  auditor.auditSwitchOnMiss(
                                      hier, sched, at, "SRAM miss");
                              });
        buf.pos += out.consumed;
        core.now += out.cpuPs;
        priced += out.cpuPs;
        executed += out.consumed;
        bool quantum_expired = sched.onRefs(out.consumed);
        if (!out.pageFault && !quantum_expired)
            continue;

        // A switch: the fault branch wins over an expiry on the same
        // reference.  Audit before it, while the process that faulted
        // or expired is still the running one, so a corrupted run
        // queue is caught while it is visibly wrong.
        auditor.auditSwitchOnMiss(hier, sched, core.now,
                                  out.pageFault ? "miss boundary"
                                                : "quantum boundary");
        Tick transfer_done = 0;
        if (out.pageFault) {
            // The handler has queued the transfer; the shared channel
            // serializes every core's page moves, so it starts when
            // the bus frees.
            transfer_done = std::max(core.now, bus_free_at) + out.deferPs;
            bus_free_at = transfer_done;
            priced += out.deferPs;
        }
        if (cfg.insertSwitchTrace) {
            obs.setNow(core.now);
            Tick t = hier.runContextSwitchTrace();
            // Argument: index of the reference that ended the slice.
            RAMPAGE_TRACE_EVENT(ContextSwitch, t, executed - 1, osPid);
            core.now += t;
            priced += t;
        }
        SchedPick pick = out.pageFault
                             ? sched.blockCurrent(core.now, transfer_done)
                             : sched.rotate(core.now);
        obs.setNow(core.now);
        RAMPAGE_TRACE_EVENT(
            ProcessSwitch,
            pick.resumeAt > core.now ? pick.resumeAt - core.now : 0,
            core.srcs[pick.index],
            static_cast<Pid>(core.srcs[pick.index]));
        core.now = std::max(core.now, pick.resumeAt);

        if (injector.pending()) {
            if (injector.targetsScheduler())
                injector.applyScheduler(sched, core.now);
            else
                injector.apply(hier);
        }
    }

    // The run ends when the last core retires its work and any
    // transfer still on the bus completes.
    Tick end_now = cfg.switchOnMiss ? bus_free_at : 0;
    for (const CoreRun &core : cores)
        end_now = std::max(end_now, core.now);
    if (cfg.switchOnMiss) {
        for (CoreRun &core : cores)
            auditor.auditSwitchOnMiss(hier, *core.sched, end_now,
                                      "end of run");
    } else {
        auditor.auditBlocking(hier, priced, "end of run");
    }
    if (injector.pending())
        warnOnce("fault injection: '%s' was never applied (the run "
                 "ended before its first audit boundary)",
                 modelFaultName(injector.planned().kind));

    SimResult result;
    result.elapsedPs = end_now;
    result.counts = hier.counts();
    result.systemName = hier.name();
    result.issueHz = hier.commonConfig().issueHz;
    result.traceGenSeconds = fillSeconds;
    result.stats = hier.statsRegistry().snapshot();
    if (cfg.switchOnMiss) {
        // The schedulers are local to this run: snapshot them through
        // a throwaway registry so no dangling pointer outlives it.
        SchedStats total;
        StatsRegistry sched_reg;
        for (unsigned c = 0; c < ncores; ++c) {
            const SchedStats &s = cores[c].sched->stats();
            total.quantumSwitches += s.quantumSwitches;
            total.missSwitches += s.missSwitches;
            total.stalls += s.stalls;
            total.stallTime += s.stallTime;
            const std::string prefix =
                ncores == 1 ? "sched"
                            : "core" + std::to_string(c) + ".sched";
            cores[c].sched->registerStats(sched_reg, prefix);
        }
        result.sched = total;
        result.stallPs = total.stallTime;
        result.stats.append(sched_reg.snapshot());
    } else {
        result.stallPs = bus_stall;
    }
    result.stats.addCounter("sim.elapsed_ps",
                            "elapsed simulated picoseconds", end_now);
    if (cfg.switchOnMiss) {
        result.stats.addCounter(
            "sim.stall_ps",
            "CPU idle ps waiting for page transfers", result.stallPs);
    } else if (ncores > 1) {
        result.stats.addCounter(
            "sim.stall_ps",
            "core idle ps waiting for the shared transfer bus",
            bus_stall);
    }
    result.stats.addValue("sim.seconds", "elapsed simulated seconds",
                          result.seconds());
    if (auditor.enabled()) {
        result.stats.addCounter("audit.runs",
                                "model-integrity audit passes",
                                auditor.auditsRun());
        result.stats.addCounter("audit.checks",
                                "individual invariant checks run",
                                auditor.checksRun());
    }
    obs.finish(result, cfg.maxRefs, end_now);
    return result;
}

} // namespace rampage
