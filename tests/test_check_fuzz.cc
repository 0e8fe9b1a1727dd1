/**
 * @file
 * Unit tests for the differential-fuzzing harness (src/check/): the
 * seeded generator's validity contract, the hostile-mutation
 * rejection contract, JSON repro round-tripping, oracle agreement on
 * canonical configurations, and the end-to-end acceptance drill — a
 * seeded model bug must be caught, shrink to a smaller point, and
 * replay failing after a save/load cycle.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "check/config_gen.hh"
#include "check/fuzz_driver.hh"
#include "check/properties.hh"
#include "check/repro.hh"
#include "check/shrink.hh"
#include "core/factory.hh"
#include "core/sweep.hh"
#include "util/error.hh"
#include "util/random.hh"

namespace rampage
{
namespace
{

/** Property subset that keeps a unit test fast but meaningful. */
PropertyOptions
fastProperties()
{
    PropertyOptions options;
    options.sweepHarness = false;  // forks + threads: covered by ctest
    options.observability = false; // writes scratch files
    return options;
}

TEST(FuzzGenerator, GeneratedPointsAreValid)
{
    Rng rng(11);
    GenStats stats;
    for (std::uint64_t i = 0; i < 64; ++i) {
        FuzzPoint point = generatePoint(rng, 11, i, &stats);
        EXPECT_NO_THROW(validateHierarchyConfig(point.hier))
            << "point " << i;
        EXPECT_GE(point.sim.maxRefs, 1u);
        EXPECT_GE(point.sim.quantumRefs, 1u);
        EXPECT_EQ(point.generatorSeed, 11u);
        EXPECT_EQ(point.pointIndex, i);
    }
    EXPECT_GE(stats.candidates, 64u);
}

TEST(FuzzGenerator, DeterministicForSeed)
{
    Rng a(99), b(99);
    for (std::uint64_t i = 0; i < 8; ++i) {
        FuzzPoint pa = generatePoint(a, 99, i);
        FuzzPoint pb = generatePoint(b, 99, i);
        EXPECT_EQ(fuzzPointToJson(pa), fuzzPointToJson(pb))
            << "point " << i;
    }
}

TEST(FuzzGenerator, HostileMutationsRejectedWithConfigError)
{
    Rng rng(5);
    unsigned rejected = 0;
    for (std::uint64_t i = 0; i < 128; ++i) {
        FuzzPoint point = generatePoint(rng, 5, i % 16);
        HierarchyConfig corrupted = point.hier;
        std::string mutation = mutateHostile(rng, corrupted);
        try {
            validateHierarchyConfig(corrupted);
        } catch (const ConfigError &) {
            ++rejected; // the only acceptable escape
        } catch (const std::exception &err) {
            FAIL() << "mutation '" << mutation
                   << "' escaped with non-ConfigError: " << err.what();
        }
    }
    // Most hostile values must actually be invalid, or the probe
    // is not probing anything.
    EXPECT_GE(rejected, 64u);
}

TEST(FuzzRepro, JsonRoundTripIsExact)
{
    Rng rng(21);
    for (std::uint64_t i = 0; i < 16; ++i) {
        FuzzPoint point = generatePoint(rng, 21, i);
        point.faultSpec = (i % 2) ? "skew-cycles:7" : "";
        point.note = "round-trip fixture";
        std::string json = fuzzPointToJson(point);
        FuzzPoint back = fuzzPointFromJson(json);
        EXPECT_EQ(json, fuzzPointToJson(back)) << "point " << i;
    }
}

TEST(FuzzRepro, LoadRejectsMalformedInput)
{
    EXPECT_THROW(fuzzPointFromJson(""), ConfigError);
    EXPECT_THROW(fuzzPointFromJson("{}"), ConfigError);
    EXPECT_THROW(fuzzPointFromJson("{\"schema\": 99}"), ConfigError);
    EXPECT_THROW(loadFuzzPoint("no/such/file.json"), ConfigError);
}

TEST(FuzzProperties, OracleAgreesOnCanonicalPoints)
{
    // One small point per family, fixed rather than drawn, so a
    // disagreement here bisects to the oracle (not the generator).
    Rng rng(1);
    unsigned conventional = 0, paged = 0;
    for (std::uint64_t i = 0; i < 40 && (!conventional || !paged);
         ++i) {
        FuzzPoint point = generatePoint(rng, 1, i);
        bool is_conv =
            point.hier.family == HierarchyConfig::Family::Conventional;
        if ((is_conv && conventional) || (!is_conv && paged))
            continue;
        PropertyReport report = checkPoint(point, fastProperties());
        EXPECT_TRUE(report.ok())
            << "point " << i << ":\n" << report.summary();
        (is_conv ? conventional : paged) += 1;
    }
    EXPECT_EQ(conventional, 1u);
    EXPECT_EQ(paged, 1u);
}

TEST(FuzzProperties, OracleAgreesOnDriverScales)
{
    // The four paper systems at a quantum-aligned scale and a ragged
    // final slice, through the single simulation driver: the oracle
    // replays the schedule independently, determinism reruns it, and
    // the audit property reruns it per reference under paranoid
    // audits and requires identical statistics.
    const HierarchyConfig systems[] = {
        baselineConfig(1'000'000'000ull, 128),
        twoWayConfig(1'000'000'000ull, 128),
        rampageConfig(1'000'000'000ull, 1024),
        rampageConfig(1'000'000'000ull, 1024, true),
    };
    const char *const names[] = {"baseline 128 B", "2-way 128 B",
                                 "RAMpage 1 KB", "RAMpage+switch 1 KB"};
    const std::uint64_t scales[][2] = {{20'000, 2'000}, {60'000, 7'000}};
    for (std::size_t s = 0; s < 4; ++s) {
        for (const auto &scale : scales) {
            FuzzPoint point;
            point.hier = systems[s];
            point.sim.maxRefs = scale[0];
            point.sim.quantumRefs = scale[1];
            PropertyReport report = checkPoint(point, fastProperties());
            EXPECT_TRUE(report.ok())
                << names[s] << " at " << scale[0] << "/"
                << scale[1] << ":\n"
                << report.summary();
        }
    }
}

TEST(FuzzAcceptance, SeededBugShrinksAndReplaysFailing)
{
    // The drill from the issue: seed a model bug, require the suite
    // to catch it, shrink it, and require the saved repro to replay
    // failing after a round trip through JSON.
    Rng rng(3);
    FuzzPoint point = generatePoint(rng, 3, 0);
    point.faultSpec = "skew-cycles";

    PropertyOptions options = fastProperties();
    options.audit = true;
    PropertyReport report = checkPoint(point, options);
    ASSERT_FALSE(report.ok()) << "injected fault went undetected";

    ShrinkOptions shrink_options;
    shrink_options.maxEvaluations = 60;
    shrink_options.properties = options;
    ShrinkResult shrunk = shrinkPoint(point, shrink_options);
    EXPECT_GT(shrunk.accepted, 0u);
    EXPECT_FALSE(shrunk.failure.empty());
    EXPECT_LE(shrunk.point.sim.maxRefs, point.sim.maxRefs);

    FuzzPoint replayed =
        fuzzPointFromJson(fuzzPointToJson(shrunk.point));
    PropertyReport again = checkPoint(replayed, options);
    EXPECT_FALSE(again.ok())
        << "shrunk repro no longer reproduces the failure";
}

TEST(FuzzCoverage, EveryFaultKindIsDetected)
{
    for (const CoverageOutcome &outcome : runDetectorCoverage(false))
        EXPECT_TRUE(outcome.caught())
            << "fault kind '" << modelFaultName(outcome.kind)
            << "' evaded every detector: " << outcome.detail;
}

} // namespace
} // namespace rampage
