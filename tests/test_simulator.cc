/**
 * @file
 * Tests for the simulation driver: blocking runs, context-switch
 * trace insertion, and the timing-coupled switch-on-miss schedule.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>

#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/synthetic.hh"

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

TEST(Simulator, BlockingRunIsDeterministic)
{
    auto run = [] {
        auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
        Simulator sim(*hier, tinyWorkload(), tinySim());
        return sim.run();
    };
    SimResult a = run();
    SimResult b = run();
    EXPECT_EQ(a.elapsedPs, b.elapsedPs);
    EXPECT_EQ(a.counts.dramReads, b.counts.dramReads);
    EXPECT_EQ(a.counts.tlbMisses, b.counts.tlbMisses);
}

TEST(Simulator, ProcessesExactlyMaxRefs)
{
    auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
    Simulator sim(*hier, tinyWorkload(), tinySim(12'345));
    SimResult result = sim.run();
    EXPECT_EQ(result.counts.traceRefs, 12'345u);
}

TEST(Simulator, ContextSwitchTracePerSlice)
{
    auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
    Simulator sim(*hier, tinyWorkload(), tinySim(60'000, 10'000));
    SimResult result = sim.run();
    // 6 slices -> 6 context-switch traces (first slice included).
    EXPECT_EQ(result.counts.contextSwitches, 6u);
}

TEST(Simulator, SwitchTraceCanBeDisabled)
{
    auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
    SimConfig cfg = tinySim();
    cfg.insertSwitchTrace = false;
    Simulator sim(*hier, tinyWorkload(), cfg);
    SimResult result = sim.run();
    EXPECT_EQ(result.counts.contextSwitches, 0u);
}

TEST(Simulator, ElapsedMatchesRecostAtSameRate)
{
    // For blocking runs, the timeline total equals the priced event
    // counts at the run's own issue rate — the Table 3 re-costing is
    // exact, not approximate.
    auto hier = makeHierarchy(baselineConfig(oneGhz, 512));
    Simulator sim(*hier, tinyWorkload(), tinySim());
    SimResult result = sim.run();
    EXPECT_EQ(result.elapsedPs, totalTimePs(result.counts, oneGhz));
}

TEST(Simulator, RampageBlockingElapsedMatchesRecost)
{
    RampageConfig cfg = rampageConfig(oneGhz, 1024);
    cfg.pager.baseSramBytes = 256 * kib;
    auto hier = makeHierarchy(cfg);
    Simulator sim(*hier, tinyWorkload(), tinySim());
    SimResult result = sim.run();
    EXPECT_EQ(result.elapsedPs, totalTimePs(result.counts, oneGhz));
}

TEST(Simulator, SwitchOnMissOverlapsTransfers)
{
    // With several processes, switch-on-miss overlaps page transfers
    // with execution: elapsed time is at most the blocking time and
    // strictly less than cycle-time + full DRAM time.
    // Moderate fault pressure: working sets mostly fit, so the
    // channel is not saturated and overlap can pay off.
    auto run = [](bool switch_on_miss) {
        RampageConfig cfg = rampageConfig(4'000'000'000ull, 4096,
                                          switch_on_miss);
        cfg.pager.baseSramBytes = 1 * mib;
        auto hier = makeHierarchy(cfg);
        SimConfig sim = tinySim(200'000, 25'000);
        sim.switchOnMiss = switch_on_miss;
        Simulator driver(*hier, tinyWorkload(4), sim);
        return driver.run();
    };
    SimResult blocking = run(false);
    SimResult switching = run(true);
    EXPECT_GT(switching.sched.missSwitches, 0u);
    // At 4 GHz with big pages, overlap wins (the paper's §5.4 claim).
    EXPECT_LT(switching.elapsedPs, blocking.elapsedPs);
}

TEST(Simulator, SwitchOnMissSingleProcessStalls)
{
    // With one process there is nobody to switch to: every fault
    // stalls the CPU for the transfer, so elapsed time ~ blocking.
    RampageConfig cfg = rampageConfig(oneGhz, 1024, true);
    cfg.pager.baseSramBytes = 128 * kib;
    auto hier = makeHierarchy(cfg);
    SimConfig sim = tinySim(30'000, 10'000);
    sim.switchOnMiss = true;
    Simulator driver(*hier, tinyWorkload(1), sim);
    SimResult result = driver.run();
    EXPECT_GT(result.sched.stalls, 0u);
    EXPECT_GT(result.stallPs, 0u);
    EXPECT_EQ(result.stallPs, result.sched.stallTime);
}

TEST(Simulator, ResultMetadata)
{
    auto hier = makeHierarchy(twoWayConfig(oneGhz, 256));
    Simulator sim(*hier, tinyWorkload(), tinySim(5'000, 1'000));
    SimResult result = sim.run();
    EXPECT_EQ(result.systemName, "2-way L2");
    EXPECT_EQ(result.issueHz, oneGhz);
    EXPECT_NEAR(result.seconds(),
                static_cast<double>(result.elapsedPs) / 1e12, 1e-15);
}

TEST(Simulator, ElapsedGrowsWithRefs)
{
    auto elapsed = [](std::uint64_t refs) {
        auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
        Simulator sim(*hier, tinyWorkload(), tinySim(refs));
        return sim.run().elapsedPs;
    };
    EXPECT_LT(elapsed(10'000), elapsed(40'000));
}

TEST(Simulator, ParanoidRunAttributesTraceGeneration)
{
    // Every run fills its chunks through the instrumented fill, so a
    // per-reference (paranoid) run still reports generation time.
    SimConfig sim = tinySim(20'000, 5'000);
    sim.auditLevel = AuditLevel::Paranoid;
    SimResult result = simulateSystem(baselineConfig(oneGhz, 128), sim);
    EXPECT_GT(result.traceGenSeconds, 0.0);
}

// ------------------------------------------------ pinned run snapshots

/** FNV-1a (64-bit) over a byte string, then a value's 8 LE bytes. */
std::uint64_t
snapshotHash(const SimResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](unsigned char byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (char c : result.stats.toJson().dump())
        mix(static_cast<unsigned char>(c));
    for (int i = 0; i < 8; ++i)
        mix(static_cast<unsigned char>(result.elapsedPs >> (8 * i)));
    return h;
}

/** The pinned systems, in the order of the pinned[] rows. */
HierarchyConfig
pinSystem(int system)
{
    switch (system) {
      case 0:
        return baselineConfig(oneGhz, 128);
      case 1:
        return twoWayConfig(oneGhz, 128);
      case 2:
        return rampageConfig(oneGhz, 1024);
      case 3:
        return rampageConfig(oneGhz, 1024, true);
      default: {
        // A 128 KiB SRAM main memory of 128 B pages: the run replaces
        // (and writes back) pages, so the fault path is pinned too.
        RampageConfig cfg = rampageConfig(oneGhz, 128);
        cfg.pager.baseSramBytes = 128 * kib;
        return cfg;
      }
    }
}

/** Pin variants: obs off at 1 and 4 cores, obs on at 1 core. */
enum class PinRun
{
    OneCore,
    FourCores,
    OneCoreTraced,
};

/**
 * Hashes of the full stats snapshot plus elapsed time for every
 * (system, run, audit) combination below.  The first four systems
 * were captured before the three run loops were folded into one
 * driver, the page-replacement row before handler bodies were replayed
 * run by run.  The traced rows include the
 * sim.trace.events / sim.interval.epochs counters.  Any change to a
 * single simulated quantity changes them; regenerate only for a
 * deliberate change to the model.
 */
const std::uint64_t pinned[5][3][2] = {
    // baseline 128 B
    {{0xd1960f20810a79b1ull, 0x36af549c5b2031ddull},
     {0x69558f43464c99cbull, 0xb6f3bf9e78ab62daull},
     {0xd9e7f3c2c9e7cba1ull, 0xdc7c76b7ef13b705ull}},
    // 2-way 128 B
    {{0x7f1613a9072384c9ull, 0x2d85b344d8c225f0ull},
     {0x47abd58d5cbb1b15ull, 0x82b61c294e463404ull},
     {0xf79f3a39ea582664ull, 0x05cbfc9d88174f63ull}},
    // RAMpage 1 KB
    {{0x9d17b256f131143bull, 0xc5f997adc1495b58ull},
     {0x1aba07420bf6e2dcull, 0x74194e7f49bf9f1bull},
     {0xe03bd406b7c324e1ull, 0xf9d9ab10adedc1b4ull}},
    // RAMpage 1 KB, switch on miss
    {{0x92ea95a970f2dfd0ull, 0xefd36ee7b2c67897ull},
     {0xd8a494b2401d030dull, 0x703077c0b8b70225ull},
     {0xfad3e0fc9ef7c973ull, 0x2a06be9654106072ull}},
    // RAMpage 128 B over a 128 KiB SRAM (page replacement)
    {{0x302475de8091a6abull, 0xe9e6d2b27047ebb4ull},
     {0x3b58cb66986b90bbull, 0xa73a0a0d301169f1ull},
     {0xc7cd822f5f645365ull, 0x7db7ce21c4493990ull}},
};

class SnapshotPin
    : public ::testing::TestWithParam<std::tuple<int, PinRun, bool>>
{
};

TEST_P(SnapshotPin, MatchesCapturedHash)
{
    const auto [system, run, paranoid] = GetParam();
    SimConfig sim = tinySim(60'000, 7'000);
    sim.auditLevel = paranoid ? AuditLevel::Paranoid : AuditLevel::Off;
    sim.cores = run == PinRun::FourCores ? 4 : 1;
    const std::string base = std::string(::testing::TempDir()) +
                             "/rampage_pin_" + std::to_string(system) +
                             (paranoid ? "_paranoid" : "_off");
    if (run == PinRun::OneCoreTraced) {
        sim.traceOutBase = base;
        sim.statsIntervalRefs = 5'000;
        sim.intervalOutBase = base;
    }
    SimResult result = simulateSystem(pinSystem(system), sim);
    if (run == PinRun::OneCoreTraced) {
        ASSERT_NE(result.stats.find("sim.trace.events"), nullptr);
        std::remove(result.traceFile.c_str());
        std::remove(result.intervalFile.c_str());
    }
    if (system == 4) {
        const StatsSnapshot::Entry *wb =
            result.stats.find("pager.dirty_writebacks");
        ASSERT_NE(wb, nullptr);
        EXPECT_GT(wb->counter, 0u) << "the replacement row wrote back "
                                      "no dirty page";
    }
    const std::uint64_t got = snapshotHash(result);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, pinned[system][static_cast<int>(run)][paranoid])
        << result.systemName << " hashed " << hex;
}

std::string
pinName(const ::testing::TestParamInfo<SnapshotPin::ParamType> &info)
{
    static const char *const systems[] = {"baseline128", "twoWay128",
                                          "rampage1k", "rampageSom1k",
                                          "rampage128Sram128k"};
    static const char *const runs[] = {"cores1", "cores4",
                                       "cores1Traced"};
    return std::string(systems[std::get<0>(info.param)]) + "_" +
           runs[static_cast<int>(std::get<1>(info.param))] + "_" +
           (std::get<2>(info.param) ? "paranoid" : "auditOff");
}

INSTANTIATE_TEST_SUITE_P(
    SystemsCoresAudit, SnapshotPin,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(PinRun::OneCore,
                                         PinRun::FourCores,
                                         PinRun::OneCoreTraced),
                       ::testing::Bool()),
    pinName);

} // namespace
} // namespace rampage
