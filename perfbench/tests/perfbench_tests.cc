/**
 * @file
 * Small-scale tests of the benchmark's own machinery: the outside
 * replay against Simulator::run, the multicore digest, span self-time
 * arithmetic and the median/quartile helpers.
 */

#include <gtest/gtest.h>

#include "core/sweep.hh"
#include "digest.hh"
#include "replay.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

constexpr std::uint64_t smallRefs = 400'000; // > 3 quanta of 120 k

PointSpec
blockingPoint(const std::string &family, std::uint64_t size)
{
    constexpr std::uint64_t hz = 1'000'000'000ull;
    if (family == "baseline")
        return {"baseline", rampage::baselineConfig(hz, size)};
    if (family == "2way")
        return {"2way", rampage::twoWayConfig(hz, size)};
    return {"rampage", rampage::rampageConfig(hz, size)};
}

void
expectReplayIdentical(const PointSpec &point, std::uint64_t seed)
{
    SpanRecorder rec("test/" + point.id);
    PointRun sim =
        executePoint(point, smallRefs, seed, Driver::Simulator, nullptr);
    PointRun replay =
        executePoint(point, smallRefs, seed, Driver::Replay, &rec);
    EXPECT_EQ(statsDigest(sim.result), statsDigest(replay.result))
        << point.id;
    EXPECT_EQ(sim.result.elapsedPs, replay.result.elapsedPs) << point.id;
    ASSERT_EQ(sim.result.stats.entries().size(),
              replay.result.stats.entries().size());
    for (std::size_t i = 0; i < sim.result.stats.entries().size(); ++i) {
        const auto &a = sim.result.stats.entries()[i];
        const auto &b = replay.result.stats.entries()[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.counter, b.counter) << a.name;
        EXPECT_EQ(a.value, b.value) << a.name;
    }
    EXPECT_EQ(checkResult(replay.result, smallRefs, point.blocking()), "");
    EXPECT_EQ(replay.refsFilled, smallRefs);
}

} // namespace

TEST(BlockingReplay, BitIdenticalToSimulatorBaseline)
{
    expectReplayIdentical(blockingPoint("baseline", 128), 0);
    expectReplayIdentical(blockingPoint("baseline", 4096), 3);
}

TEST(BlockingReplay, BitIdenticalToSimulatorTwoWay)
{
    expectReplayIdentical(blockingPoint("2way", 512), 0);
}

TEST(BlockingReplay, BitIdenticalToSimulatorRampage)
{
    expectReplayIdentical(blockingPoint("rampage", 128), 0);
    expectReplayIdentical(blockingPoint("rampage", 2048), 5);
}

TEST(BlockingReplay, RecordsSpansAroundEveryCall)
{
    PointSpec point = blockingPoint("rampage", 1024);
    SpanRecorder rec("spans");
    executePoint(point, smallRefs, 0, Driver::Replay, &rec);
    std::map<std::string, NameTotals> totals;
    addNameTotals(rec.spans(), totals);
    EXPECT_EQ(totals["point"].count, 1u);
    EXPECT_EQ(totals["setup.make_workload"].count, 1u);
    EXPECT_EQ(totals["stats.snapshot"].count, 1u);
    // One context switch per 120 k-ref quantum started.
    EXPECT_EQ(totals["core.context_switch"].count, 4u);
    EXPECT_EQ(totals["core.access_batch"].count,
              totals["trace.fill"].count);
    EXPECT_GT(totals["core.access_batch"].count, smallRefs / 4096);
}

TEST(MulticoreReplay, FourCoreDigestRepeatsAndMatchesReplay)
{
    WorkloadSpec spec = makeWorkloadSpec("multicore_som", smallRefs);
    const PointSpec &point = spec.points.front();
    ASSERT_EQ(point.config.common().cores, 4u);
    PointRun a = executePoint(point, smallRefs, 0, Driver::Simulator, nullptr);
    PointRun b = executePoint(point, smallRefs, 0, Driver::Simulator, nullptr);
    EXPECT_EQ(statsDigest(a.result), statsDigest(b.result));
    EXPECT_EQ(checkResult(a.result, smallRefs, false), "");

    SpanRecorder rec("replay");
    PointRun replay = executePoint(point, smallRefs, 0, Driver::Replay, &rec);
    EXPECT_EQ(statsDigest(a.result), statsDigest(replay.result));

    SpanRecorder fwd("forwarded");
    PointRun forwarded =
        executePoint(point, smallRefs, 0, Driver::Forwarded, &fwd);
    EXPECT_EQ(statsDigest(a.result), statsDigest(forwarded.result));
    EXPECT_GE(forwarded.refsFilled, smallRefs);
}

TEST(Seed, ChangesTheDigest)
{
    PointSpec point = blockingPoint("rampage", 1024);
    PointRun a = executePoint(point, smallRefs, 0, Driver::Simulator, nullptr);
    PointRun b = executePoint(point, smallRefs, 1, Driver::Simulator, nullptr);
    EXPECT_NE(statsDigest(a.result), statsDigest(b.result));
}

TEST(TranslationCache, OffIsStatNeutral)
{
    PointSpec point = blockingPoint("rampage", 128);
    SpanRecorder on("on"), off("off");
    PointRun a = executePoint(point, smallRefs, 0, Driver::Replay, &on);
    PointRun b = executePoint(point, smallRefs, 0, Driver::Replay, &off,
                              false);
    EXPECT_EQ(statsDigest(a.result), statsDigest(b.result));
}

TEST(Stats, MedianAndQuartilesMatchPython)
{
    // Reference values from Python's statistics.median and
    // statistics.quantiles(values, n=4).
    EXPECT_DOUBLE_EQ(median({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 4, 2, 3}), 3);
    EXPECT_DOUBLE_EQ(median({}), 0);

    std::vector<double> q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    ASSERT_EQ(q.size(), 3u);
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);

    q = quartiles({3.5, 1.25});
    EXPECT_DOUBLE_EQ(q[0], 0.6875);
    EXPECT_DOUBLE_EQ(q[1], 2.375);
    EXPECT_DOUBLE_EQ(q[2], 4.0625);

    q = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(q[0], 1.5);
    EXPECT_DOUBLE_EQ(q[2], 4.5);

    q = quartiles({0.91, 0.87, 1.02, 0.95, 0.99, 0.93, 1.1});
    EXPECT_DOUBLE_EQ(q[0], 0.91);
    EXPECT_DOUBLE_EQ(q[1], 0.95);
    EXPECT_DOUBLE_EQ(q[2], 1.02);

    EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Spans, SelfTimeSubtractsChildCoverage)
{
    // root [0, 100): children [10, 30) and [50, 60), so self = 70.
    // The first child has a grandchild [15, 25): its self = 10.
    std::vector<Span> spans = {
        {"root", -1, 0, 100},
        {"a", 0, 10, 30},
        {"a.x", 1, 15, 25},
        {"b", 0, 50, 60},
    };
    std::vector<double> self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 70e-9);
    EXPECT_DOUBLE_EQ(self[1], 10e-9);
    EXPECT_DOUBLE_EQ(self[2], 10e-9);
    EXPECT_DOUBLE_EQ(self[3], 10e-9);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce)
{
    // Children [10, 40) and [30, 50) overlap: union [10, 50) = 40.
    // A child [90, 120) overhangs the parent's end: 10 of it counts.
    std::vector<Span> spans = {
        {"root", -1, 0, 100},
        {"a", 0, 10, 40},
        {"b", 0, 30, 50},
        {"c", 0, 90, 120},
    };
    EXPECT_DOUBLE_EQ(selfSeconds(spans)[0], 50e-9);
}

TEST(Spans, RecorderNestsAndTotals)
{
    SpanRecorder rec("p");
    {
        ScopedSpan outer(&rec, "outer");
        {
            ScopedSpan inner(&rec, "inner");
        }
        ScopedSpan second(&rec, "inner");
    }
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[2].parent, 0);
    std::map<std::string, NameTotals> totals;
    addNameTotals(rec.spans(), totals);
    EXPECT_EQ(totals["inner"].count, 2u);
    EXPECT_NEAR(totals["outer"].selfSeconds + totals["inner"].totalSeconds,
                totals["outer"].totalSeconds, 1e-12);

    ScopedSpan none(nullptr, "ignored"); // untraced: no-op
}

TEST(Digest, CoreCountersSumAndIdentityIsChecked)
{
    rampage::SimResult result;
    result.elapsedPs = 5;
    result.stats.addCounter("sim.refs", "", 10);
    result.stats.addCounter("sim.trace_refs", "", 7);
    result.stats.addCounter("sim.overhead_refs", "", 3);
    result.stats.addCounter("core0.tlb.misses", "", 4);
    result.stats.addCounter("core12.tlb.misses", "", 5);
    result.stats.addCounter("xcore1.tlb.misses", "", 100);
    result.stats.addCounter("sim.elapsed_ps", "", 5);
    EXPECT_EQ(sumCounter(result.stats, "tlb.misses"), 9u);
    EXPECT_EQ(checkResult(result, 7, false), "");
    EXPECT_NE(checkResult(result, 8, false), "");

    rampage::SimResult broken = result;
    broken.stats.addCounter("core0.sim.refs", "", 1);
    EXPECT_NE(checkResult(broken, 7, false), "");
    EXPECT_NE(statsDigest(result), statsDigest(broken));
}
