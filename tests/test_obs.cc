/**
 * @file
 * Tests for the timeline-observability layer: the trace-event ring
 * and its Chrome-trace JSON output, the glob matcher and stats
 * filtering behind --stats-filter, histogram percentile estimates,
 * the host-side phase profiler, and the codec v2 fields that carry
 * all of it across the --isolate fork boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/point_ipc.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/obs_config.hh"
#include "obs/phase_profiler.hh"
#include "obs/trace_session.hh"
#include "run_env.hh"
#include "stats/histogram.hh"
#include "stats/registry.hh"
#include "trace/synthetic.hh"
#include "util/error.hh"
#include "util/glob.hh"
#include "util/json.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

std::vector<std::unique_ptr<TraceSource>>
tinyWorkload(int programs = 3)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (int i = 0; i < programs; ++i) {
        ProgramProfile profile;
        profile.name = "tiny" + std::to_string(i);
        profile.seed = 100 + i;
        profile.heapBytes = 256 * kib;
        sources.push_back(std::make_unique<SyntheticProgram>(
            profile, static_cast<Pid>(i)));
    }
    return sources;
}

SimConfig
tinySim(std::uint64_t refs = 60'000, std::uint64_t quantum = 10'000)
{
    SimConfig sim;
    sim.maxRefs = refs;
    sim.quantumRefs = quantum;
    return sim;
}

std::string
tempPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "/rampage_obs_" + tag;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// --- glob ------------------------------------------------------------

TEST(Glob, MatchesLiteralAndWildcards)
{
    EXPECT_TRUE(globMatch("tlb.misses", "tlb.misses"));
    EXPECT_FALSE(globMatch("tlb.misses", "tlb.hits"));
    EXPECT_TRUE(globMatch("tlb.*", "tlb.misses"));
    EXPECT_FALSE(globMatch("tlb.*", "l2.misses"));
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
    EXPECT_TRUE(globMatch("l?.misses", "l2.misses"));
    EXPECT_FALSE(globMatch("l?.misses", "l2a.misses"));
    EXPECT_FALSE(globMatch("?", ""));
}

TEST(Glob, StarBacktracks)
{
    // The first '*' must be able to give characters back so the later
    // literal and '*' still match.
    EXPECT_TRUE(globMatch("a*b*c", "aXbXbXc"));
    EXPECT_TRUE(globMatch("*misses", "dram.tx.misses"));
    EXPECT_FALSE(globMatch("a*b*c", "aXbXbX"));
    EXPECT_TRUE(globMatch("a**b", "ab"));
}

TEST(StatsSnapshot, FilterKeepsMatchingEntriesInOrder)
{
    StatsSnapshot snap;
    snap.addCounter("tlb.misses", "", 7);
    snap.addCounter("l2.misses", "", 9);
    snap.addCounter("tlb.fills", "", 3);
    StatsSnapshot tlb = snap.filter("tlb.*");
    ASSERT_EQ(tlb.entries().size(), 2u);
    EXPECT_EQ(tlb.entries()[0].name, "tlb.misses");
    EXPECT_EQ(tlb.entries()[1].name, "tlb.fills");
    EXPECT_TRUE(snap.filter("nothing.*").empty());
}

// --- histogram percentiles ------------------------------------------

TEST(Histogram, Log2BucketPercentileUpperBounds)
{
    // 4 samples in bucket 1 (upper bound 3), 4 in bucket 3 (upper 15).
    std::vector<std::uint64_t> buckets{0, 4, 0, 4};
    EXPECT_EQ(log2BucketsPercentile(buckets, 0.50), 3u);
    EXPECT_EQ(log2BucketsPercentile(buckets, 0.95), 15u);
    EXPECT_EQ(log2BucketsPercentile(buckets, 0.99), 15u);
    EXPECT_EQ(log2BucketsPercentile({}, 0.5), 0u);
}

TEST(Histogram, JsonCarriesPercentilesAndCount)
{
    Log2Histogram hist;
    for (std::uint64_t v = 1; v <= 100; ++v)
        hist.add(v);
    StatsRegistry reg;
    reg.addHistogram("dram.tx_bytes", "test histogram", &hist);
    JsonValue doc = reg.snapshot().toJson();
    const JsonValue &entry = doc.at("dram.tx_bytes");
    ASSERT_TRUE(entry.isObject());
    EXPECT_EQ(entry.at("count").asInt(), 100);
    EXPECT_EQ(entry.at("samples").asInt(), 100);
    EXPECT_EQ(entry.at("sum").asInt(), 5050);
    EXPECT_DOUBLE_EQ(entry.at("mean").asDouble(), 50.5);
    // Percentile estimates are log2 bucket upper bounds, so they can
    // only round up relative to the exact value.
    EXPECT_GE(entry.at("p50").asInt(), 50);
    EXPECT_GE(entry.at("p95").asInt(), 95);
    EXPECT_GE(entry.at("p99").asInt(), 99);
    EXPECT_LE(entry.at("p99").asInt(), 127);
}

// --- trace ring ------------------------------------------------------

TEST(TraceSession, RingOverflowCountsDrops)
{
    TraceSession session(4);
    session.setNow(1000);
    for (std::uint64_t i = 0; i < 10; ++i)
        session.emit(TraceEventKind::L2Miss, 0, i, 0);
    EXPECT_EQ(session.emitted(), 10u);
    EXPECT_EQ(session.dropped(), 6u);
    EXPECT_EQ(session.size(), 4u);
    EXPECT_EQ(session.capacity(), 4u);
}

TEST(TraceSession, WritesWellFormedChromeTrace)
{
    TraceSession session(64);
    session.setNow(2'000'000); // 2 us simulated
    session.emit(TraceEventKind::L2Miss, 0, 0xdead, 1);
    session.emit(TraceEventKind::PageFault, 500'000, 42, 1);
    session.setNow(3'000'000);
    session.emit(TraceEventKind::DramTx, 0, 4096, 1);

    std::string path = tempPath("chrome.trace.json");
    ASSERT_TRUE(session.writeChromeTrace(path));

    JsonValue doc = JsonValue::parse(readFile(path));
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ns");
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // 6 metadata events (process name + 5 tracks) + 3 events.
    ASSERT_EQ(events.size(), 9u);
    std::size_t complete = 0, instant = 0, metadata = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::string &ph = events.at(i).at("ph").asString();
        if (ph == "M")
            ++metadata;
        else if (ph == "X")
            ++complete;
        else if (ph == "i")
            ++instant;
    }
    EXPECT_EQ(metadata, 6u);
    EXPECT_EQ(complete, 1u); // only the fault had a duration
    EXPECT_EQ(instant, 2u);
    EXPECT_EQ(doc.at("otherData").at("emitted").asInt(), 3);
    EXPECT_EQ(doc.at("otherData").at("dropped").asInt(), 0);
}

TEST(TraceSession, WritesEventsInSimulatedTimeOrder)
{
    // Two cores' chunks arrive out of time order; the file must list
    // them by simulated time, equal stamps in emission order.
    TraceSession session(3); // wraps: the oldest event is dropped
    for (std::uint64_t ts : {9'000u, 5'000u, 7'000u, 5'000u}) {
        session.setNow(ts);
        session.emit(TraceEventKind::L2Miss, 0, ts + session.emitted(),
                     1);
    }
    std::string path = tempPath("ordered.trace.json");
    ASSERT_TRUE(session.writeChromeTrace(path));
    JsonValue doc = JsonValue::parse(readFile(path));
    const JsonValue &events = doc.at("traceEvents");
    std::vector<std::int64_t> values;
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events.at(i).at("ph").asString() != "M")
            values.push_back(events.at(i).at("args").at("value").asInt());
    EXPECT_EQ(values, (std::vector<std::int64_t>{5'001, 5'003, 7'002}));
    std::remove(path.c_str());
}

TEST(TraceSession, WriteFailureReturnsFalse)
{
    TraceSession session(4);
    session.setNow(1);
    session.emit(TraceEventKind::TlbFill, 0, 1, 0);
    EXPECT_FALSE(session.writeChromeTrace(
        std::string(::testing::TempDir()) +
        "/no_such_dir_rampage/trace.json"));
}

// --- per-run file naming --------------------------------------------

TEST(ObsConfig, RunFilePathUsesSanitizedThreadLabel)
{
    ObsPointLabelScope label("rampage/4KB");
    EXPECT_EQ(obsRunFilePath("out/fig", ".trace.json"),
              "out/fig.rampage_4KB.trace.json");
}

TEST(ObsConfig, RunFilePathFallsBackToSequenceNumber)
{
    std::string a = obsRunFilePath("base", ".x");
    std::string b = obsRunFilePath("base", ".x");
    EXPECT_NE(a, b);
    EXPECT_EQ(a.find("base.run"), 0u);
}

TEST(ObsConfig, StrictIntervalParsing)
{
    // The --stats-interval and RAMPAGE_TRACE_RING rows of the
    // run-settings table.
    EXPECT_EQ(settingsWithFlag("--stats-interval", "50000")
                  .obs.statsIntervalRefs,
              50'000u);
    EXPECT_THROW(applyRunFlag("--stats-interval", "0"), ConfigError);
    EXPECT_THROW(applyRunFlag("--stats-interval", "-3"), ConfigError);
    EXPECT_THROW(applyRunFlag("--stats-interval", "12junk"),
                 ConfigError);
    EXPECT_THROW(applyRunFlag("--stats-interval", ""), ConfigError);
    clearRunFlags();
    ScopedEnv ring("RAMPAGE_TRACE_RING", "0");
    EXPECT_THROW(runSettings(), ConfigError);
}

// --- simulation integration -----------------------------------------

TEST(ObsSimulation, TracedRunReportsEventsAndDrops)
{
    auto hier = makeHierarchy(rampageConfig(oneGhz, 4 * kib));
    SimConfig sim = tinySim();
    sim.traceOutBase = tempPath("dropped");
    sim.traceRingCapacity = 16; // force overwrites
    Simulator simulator(*hier, tinyWorkload(), sim);
    SimResult result = simulator.run();

    const StatsSnapshot::Entry *events =
        result.stats.find("sim.trace.events");
    const StatsSnapshot::Entry *dropped =
        result.stats.find("sim.trace.dropped");
    ASSERT_NE(events, nullptr);
    ASSERT_NE(dropped, nullptr);
    EXPECT_GT(events->counter, 16u);
    EXPECT_GT(dropped->counter, 0u);

    ASSERT_FALSE(result.traceFile.empty());
    JsonValue doc = JsonValue::parse(readFile(result.traceFile));
    EXPECT_EQ(static_cast<std::uint64_t>(
                  doc.at("otherData").at("dropped").asInt()),
              dropped->counter);
    std::remove(result.traceFile.c_str());
}

TEST(ObsSimulation, TracingDoesNotPerturbTheModel)
{
    auto baseline = [](SimConfig sim) {
        auto hier = makeHierarchy(rampageConfig(oneGhz, 4 * kib));
        Simulator simulator(*hier, tinyWorkload(), sim);
        return simulator.run();
    };
    SimResult plain = baseline(tinySim());

    SimConfig traced_cfg = tinySim();
    traced_cfg.traceOutBase = tempPath("identity");
    traced_cfg.statsIntervalRefs = 7'000;
    SimResult traced = baseline(traced_cfg);

    EXPECT_EQ(plain.elapsedPs, traced.elapsedPs);
    EXPECT_EQ(plain.counts.dramReads, traced.counts.dramReads);
    EXPECT_EQ(plain.counts.tlbMisses, traced.counts.tlbMisses);

    // Every model stat must be identical; only the sim.trace.* /
    // sim.interval.* bookkeeping entries may be new.
    for (const StatsSnapshot::Entry &entry : plain.stats.entries()) {
        const StatsSnapshot::Entry *other =
            traced.stats.find(entry.name);
        ASSERT_NE(other, nullptr) << entry.name;
        EXPECT_EQ(entry.counter, other->counter) << entry.name;
        EXPECT_EQ(entry.value, other->value) << entry.name;
        EXPECT_EQ(entry.buckets, other->buckets) << entry.name;
    }
    for (const StatsSnapshot::Entry &entry : traced.stats.entries()) {
        if (!plain.stats.find(entry.name)) {
            EXPECT_TRUE(entry.name.rfind("sim.trace.", 0) == 0 ||
                        entry.name.rfind("sim.interval.", 0) == 0)
                << entry.name;
        }
    }
    std::remove(traced.traceFile.c_str());
    std::remove(traced.intervalFile.c_str());
}

/** Events named `name` in a Chrome trace file's traceEvents. */
std::uint64_t
countTraceEvents(const std::string &path, const std::string &name)
{
    JsonValue doc = JsonValue::parse(readFile(path));
    const JsonValue &events = doc.at("traceEvents");
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events.at(i).at("ph").asString() != "M" &&
            events.at(i).at("name").asString() == name)
            ++count;
    return count;
}

/** A traced two-core run; asserts the ring kept every event. */
SimResult
tracedTwoCoreRun(const HierarchyConfig &cfg, const std::string &tag)
{
    SimConfig sim = tinySim(40'000, 5'000);
    sim.cores = 2;
    sim.traceOutBase = tempPath(tag);
    SimResult result = simulateSystem(cfg, sim);
    const StatsSnapshot::Entry *dropped =
        result.stats.find("sim.trace.dropped");
    EXPECT_NE(dropped, nullptr);
    if (dropped) {
        EXPECT_EQ(dropped->counter, 0u);
    }
    EXPECT_FALSE(result.traceFile.empty());
    return result;
}

TEST(ObsSimulation, TwoCoreBlockingTraceHasEveryContextSwitch)
{
    SimResult result =
        tracedTwoCoreRun(baselineConfig(oneGhz, 128), "cores2_blocking");
    const StatsSnapshot::Entry *switches =
        result.stats.find("sim.context_switches");
    ASSERT_NE(switches, nullptr);
    EXPECT_GT(switches->counter, 0u);
    EXPECT_EQ(countTraceEvents(result.traceFile, "context_switch"),
              switches->counter);
    std::remove(result.traceFile.c_str());
}

TEST(ObsSimulation, TwoCoreSwitchOnMissTraceHasProcessSwitches)
{
    SimResult result = tracedTwoCoreRun(rampageConfig(oneGhz, 1024, true),
                                        "cores2_switch_on_miss");
    EXPECT_GT(result.sched.missSwitches, 0u);
    EXPECT_GE(countTraceEvents(result.traceFile, "process_switch"), 1u);
    std::remove(result.traceFile.c_str());
}

// --- phase profiler --------------------------------------------------

TEST(PhaseProfiler, ThreadTotalsAndSummary)
{
    phaseThreadReset();
    phaseRecord(SweepPhase::Simulate, 1.25);
    phaseRecord(SweepPhase::Simulate, 0.75);
    phaseRecord(SweepPhase::Audit, 0.5);
    PhaseSeconds totals = phaseThreadTotals();
    EXPECT_DOUBLE_EQ(
        totals[static_cast<std::size_t>(SweepPhase::Simulate)], 2.0);
    EXPECT_DOUBLE_EQ(
        totals[static_cast<std::size_t>(SweepPhase::Audit)], 0.5);
    EXPECT_DOUBLE_EQ(
        totals[static_cast<std::size_t>(SweepPhase::TraceGen)], 0.0);

    std::string summary = phaseGlobalSummary();
    EXPECT_NE(summary.find("simulate"), std::string::npos);
    EXPECT_NE(summary.find("audit"), std::string::npos);
}

TEST(PhaseProfiler, ScopedTimerRecordsSomething)
{
    phaseThreadReset();
    {
        ScopedPhaseTimer timer(SweepPhase::TraceGen);
        // Unsigned: the sum 0..99 999 overflows int.
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < 100'000; ++i)
            sink = sink + i;
        (void)sink;
    }
    PhaseSeconds totals = phaseThreadTotals();
    EXPECT_GT(totals[static_cast<std::size_t>(SweepPhase::TraceGen)],
              0.0);
}

// --- fork-boundary codec --------------------------------------------

TEST(PointIpc, RoundTripsPhaseTotalsAndTimelineFiles)
{
    PointOutcome outcome;
    outcome.id = "rampage/4KB";
    outcome.status = PointStatus::Ok;
    outcome.wallSeconds = 1.5;
    outcome.attempts = 1;
    outcome.haveResult = true;
    outcome.result.systemName = "RAMpage";
    outcome.result.issueHz = oneGhz;
    outcome.result.elapsedPs = 123'456'789;
    outcome.result.traceFile = "out/fig.rampage_4KB.trace.json";
    outcome.result.intervalFile = "out/fig.rampage_4KB.intervals.jsonl";
    outcome.phaseSeconds[static_cast<std::size_t>(
        SweepPhase::TraceGen)] = 0.25;
    outcome.phaseSeconds[static_cast<std::size_t>(
        SweepPhase::Simulate)] = 3.5;
    outcome.phaseSeconds[static_cast<std::size_t>(SweepPhase::Ipc)] =
        0.0625;

    PointOutcome back =
        decodePointOutcome(encodePointOutcome(outcome));
    EXPECT_EQ(back.id, outcome.id);
    EXPECT_EQ(back.result.traceFile, outcome.result.traceFile);
    EXPECT_EQ(back.result.intervalFile, outcome.result.intervalFile);
    for (std::size_t i = 0; i < sweepPhaseCount; ++i)
        EXPECT_DOUBLE_EQ(back.phaseSeconds[i],
                         outcome.phaseSeconds[i])
            << sweepPhaseName(static_cast<SweepPhase>(i));
}

} // namespace
} // namespace rampage
