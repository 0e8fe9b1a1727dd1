#include "replay.hh"

#include <algorithm>
#include <string_view>

#include "core/factory.hh"
#include "os/scheduler.hh"
#include "stats/registry.hh"
#include "trace/benchmarks.hh"
#include "util/error.hh"

namespace perfbench
{

using namespace rampage;

namespace
{

/** Simulator's fast-loop batch size (src/core/simulator.cc). */
constexpr std::uint64_t batchRefs = 4096;

/**
 * Timing forwarder: hands every call to the wrapped source and records
 * a `trace.fill` span around each fill().
 */
class TimedSource final : public TraceSource
{
  public:
    TimedSource(std::unique_ptr<TraceSource> inner, SpanRecorder &recorder,
                std::uint64_t &refs_filled)
        : src(std::move(inner)), rec(recorder), filled(refs_filled)
    {
    }

    bool
    next(MemRef &ref) override
    {
        bool ok = src->next(ref);
        filled += ok;
        return ok;
    }

    std::size_t
    fill(MemRef *buf, std::size_t n) override
    {
        ScopedSpan span(&rec, "trace.fill");
        std::size_t got = src->fill(buf, n);
        filled += got;
        return got;
    }

    void reset() override { src->reset(); }
    std::string name() const override { return src->name(); }
    Pid pid() const override { return src->pid(); }

  private:
    std::unique_ptr<TraceSource> src;
    SpanRecorder &rec;
    std::uint64_t &filled;
};

/** Simulator::fillRefs: exactly `n` refs, rewinding at end-of-stream. */
void
fillExactly(TraceSource &src, MemRef *buf, std::size_t n,
            SpanRecorder *rec, std::uint64_t &filled)
{
    ScopedSpan span(rec, "trace.fill");
    std::size_t got = 0;
    while (got < n) {
        got += src.fill(buf + got, n - got);
        if (got < n) {
            src.reset();
            if (!src.next(buf[got]))
                throw InternalError("trace source '%s' empty after reset",
                                    src.name().c_str());
            ++got;
        }
    }
    filled += n;
}

Tick
contextSwitch(Hierarchy &hier, SpanRecorder *rec)
{
    ScopedSpan span(rec, "core.context_switch");
    return hier.runContextSwitchTrace();
}

BatchOutcome
accessBatch(Hierarchy &hier, const MemRef *refs, std::size_t n,
            bool stop_on_fault, SpanRecorder *rec)
{
    ScopedSpan span(rec, "core.access_batch");
    return hier.accessBatch(refs, n, stop_on_fault);
}

SimResult
baseResult(const Hierarchy &hier, Tick elapsed, SpanRecorder *rec)
{
    SimResult result;
    result.elapsedPs = elapsed;
    result.counts = hier.counts();
    result.systemName = hier.name();
    result.issueHz = hier.commonConfig().issueHz;
    ScopedSpan span(rec, "stats.snapshot");
    result.stats = hier.statsRegistry().snapshot();
    return result;
}

/** Simulator::runBlocking's batched loop. */
SimResult
replayBlocking(Hierarchy &hier,
               std::vector<std::unique_ptr<TraceSource>> &sources,
               const SimConfig &cfg, SpanRecorder *rec,
               std::uint64_t &filled)
{
    Tick now = 0;
    std::size_t current = 0;
    std::uint64_t in_slice = 0;
    std::uint64_t executed = 0;
    std::vector<MemRef> buf(batchRefs);
    {
        ScopedSpan span(rec, "replay.simulate");
        while (executed < cfg.maxRefs) {
            if (in_slice == 0 && cfg.insertSwitchTrace)
                now += contextSwitch(hier, rec);
            std::uint64_t n = std::min(
                {cfg.maxRefs - executed, cfg.quantumRefs - in_slice,
                 batchRefs});
            fillExactly(*sources[current], buf.data(),
                        static_cast<std::size_t>(n), rec, filled);
            BatchOutcome out = accessBatch(
                hier, buf.data(), static_cast<std::size_t>(n), false, rec);
            now += out.cpuPs + out.deferPs;
            executed += n;
            in_slice += n;
            if (in_slice >= cfg.quantumRefs) {
                in_slice = 0;
                current = (current + 1) % sources.size();
            }
        }
    }
    SimResult result = baseResult(hier, now, rec);
    result.stats.addCounter("sim.elapsed_ps",
                            "elapsed simulated picoseconds", now);
    result.stats.addValue("sim.seconds", "elapsed simulated seconds",
                          result.seconds());
    return result;
}

/** Simulator::runMulticore's batched switch-on-miss loop. */
SimResult
replayMulticoreSwitchOnMiss(
    Hierarchy &hier, std::vector<std::unique_ptr<TraceSource>> &sources,
    const SimConfig &cfg, SpanRecorder *rec, std::uint64_t &filled)
{
    const unsigned ncores = hier.coreCount();
    if (sources.size() < ncores)
        throw ConfigError("multicore replay needs a source per core");

    struct Buffered
    {
        std::vector<MemRef> refs;
        std::size_t pos = 0;
    };
    std::vector<Buffered> bufs(sources.size());

    struct CoreRun
    {
        std::vector<std::size_t> srcs;
        std::unique_ptr<Scheduler> sched;
        Tick now = 0;
    };
    std::vector<CoreRun> cores(ncores);
    for (std::size_t i = 0; i < sources.size(); ++i)
        cores[i % ncores].srcs.push_back(i);
    for (CoreRun &core : cores)
        core.sched =
            std::make_unique<Scheduler>(core.srcs.size(), cfg.quantumRefs);

    Tick bus_free_at = 0;
    std::uint64_t executed = 0;
    {
        ScopedSpan span(rec, "replay.simulate");
        if (cfg.insertSwitchTrace) {
            for (unsigned c = 0; c < ncores; ++c) {
                hier.activateCore(static_cast<CoreId>(c));
                cores[c].now += contextSwitch(hier, rec);
            }
        }
        while (executed < cfg.maxRefs) {
            unsigned k = 0;
            for (unsigned c = 1; c < ncores; ++c)
                if (cores[c].now < cores[k].now)
                    k = c;
            CoreRun &core = cores[k];
            hier.activateCore(static_cast<CoreId>(k));

            Scheduler &sched = *core.sched;
            std::size_t src = core.srcs[sched.current()];
            Buffered &buf = bufs[src];
            if (buf.pos == buf.refs.size()) {
                buf.refs.resize(batchRefs);
                fillExactly(*sources[src], buf.refs.data(), batchRefs, rec,
                            filled);
                buf.pos = 0;
            }
            std::uint64_t n = std::min(
                {cfg.maxRefs - executed, sched.refsUntilQuantum(),
                 static_cast<std::uint64_t>(buf.refs.size() - buf.pos),
                 batchRefs});
            BatchOutcome out =
                accessBatch(hier, buf.refs.data() + buf.pos,
                            static_cast<std::size_t>(n), true, rec);
            buf.pos += out.consumed;
            core.now += out.cpuPs;
            executed += out.consumed;
            bool quantum_expired = sched.onRefs(out.consumed);

            if (out.pageFault) {
                Tick start = std::max(core.now, bus_free_at);
                Tick done = start + out.deferPs;
                bus_free_at = done;
                if (cfg.insertSwitchTrace)
                    core.now += contextSwitch(hier, rec);
                SchedPick pick = sched.blockCurrent(core.now, done);
                core.now = std::max(core.now, pick.resumeAt);
            } else if (quantum_expired) {
                if (cfg.insertSwitchTrace)
                    core.now += contextSwitch(hier, rec);
                SchedPick pick = sched.rotate(core.now);
                core.now = std::max(core.now, pick.resumeAt);
            }
        }
    }

    Tick end_now = bus_free_at;
    for (const CoreRun &core : cores)
        end_now = std::max(end_now, core.now);

    SimResult result = baseResult(hier, end_now, rec);
    SchedStats total;
    StatsRegistry sched_reg;
    for (unsigned c = 0; c < ncores; ++c) {
        const SchedStats &s = cores[c].sched->stats();
        total.quantumSwitches += s.quantumSwitches;
        total.missSwitches += s.missSwitches;
        total.stalls += s.stalls;
        total.stallTime += s.stallTime;
        cores[c].sched->registerStats(sched_reg,
                                      "core" + std::to_string(c) + ".sched");
    }
    result.sched = total;
    result.stallPs = total.stallTime;
    result.stats.append(sched_reg.snapshot());
    result.stats.addCounter("sim.elapsed_ps",
                            "elapsed simulated picoseconds", end_now);
    result.stats.addCounter("sim.stall_ps",
                            "CPU idle ps waiting for page transfers",
                            result.stallPs);
    result.stats.addValue("sim.seconds", "elapsed simulated seconds",
                          result.seconds());
    return result;
}

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

double
PointRun::simulateSeconds() const
{
    return runSeconds - std::min(fillSeconds, runSeconds);
}

SimResult
replaySchedule(Hierarchy &hier,
               std::vector<std::unique_ptr<TraceSource>> &sources,
               const SimConfig &cfg, SpanRecorder *recorder,
               std::uint64_t *refs_filled)
{
    std::uint64_t filled = 0;
    SimResult result;
    if (hier.coreCount() == 1 && !cfg.switchOnMiss)
        result = replayBlocking(hier, sources, cfg, recorder, filled);
    else if (hier.coreCount() > 1 && cfg.switchOnMiss)
        result = replayMulticoreSwitchOnMiss(hier, sources, cfg, recorder,
                                             filled);
    else
        throw ConfigError("replay covers the single-core blocking and the "
                          "multicore switch-on-miss drivers only");
    if (refs_filled)
        *refs_filled = filled;
    return result;
}

PointRun
executePoint(const PointSpec &point, std::uint64_t refs, std::uint64_t seed,
             Driver driver, SpanRecorder *recorder, bool translation_cache)
{
    if (driver != Driver::Simulator && recorder == nullptr)
        throw ConfigError("a traced driver needs a span recorder");
    SpanRecorder *rec = driver == Driver::Simulator ? nullptr : recorder;
    const SimConfig sim = pointSimConfig(point, refs);

    PointRun run;
    auto start = Clock::now();
    ScopedSpan point_span(rec, "point");

    std::unique_ptr<Hierarchy> hier;
    std::vector<std::unique_ptr<TraceSource>> workload;
    {
        ScopedSpan span(rec, "setup.make_hierarchy");
        hier = makeHierarchy(point.config);
    }
    {
        ScopedSpan span(rec, "setup.make_workload");
        workload = makeWorkload(seed);
    }
    run.setupSeconds = since(start);
    if (!translation_cache)
        hier->setTranslationCacheEnabled(false);

    auto run_start = Clock::now();
    switch (driver) {
      case Driver::Simulator: {
        Simulator simulator(*hier, std::move(workload), sim);
        run.result = simulator.run();
        run.runSeconds = since(run_start);
        run.fillSeconds = run.result.traceGenSeconds;
        break;
      }
      case Driver::Forwarded: {
        std::vector<std::unique_ptr<TraceSource>> timed;
        for (auto &src : workload)
            timed.push_back(std::make_unique<TimedSource>(
                std::move(src), *rec, run.refsFilled));
        Simulator simulator(*hier, std::move(timed), sim);
        {
            ScopedSpan span(rec, "simulator.run");
            run.result = simulator.run();
        }
        run.runSeconds = since(run_start);
        run.fillSeconds = run.result.traceGenSeconds;
        break;
      }
      case Driver::Replay: {
        std::size_t first = rec->spans().size();
        run.result =
            replaySchedule(*hier, workload, sim, rec, &run.refsFilled);
        run.runSeconds = since(run_start);
        for (std::size_t i = first; i < rec->spans().size(); ++i)
            if (std::string_view(rec->spans()[i].name) == "trace.fill")
                run.fillSeconds += rec->spans()[i].seconds();
        break;
      }
    }
    run.wallSeconds = since(start);
    return run;
}

} // namespace perfbench
