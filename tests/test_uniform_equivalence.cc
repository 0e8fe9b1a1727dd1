/**
 * @file
 * Equivalence tests for the unified page store: a per-pid page-size
 * configuration in which every process uses the same page size must
 * normalize to the uniform policy and produce a *snapshot-identical*
 * system — same timeline, same statistics dump, same layout — as the
 * fixed-page configuration at that size.  This is the contract that
 * lets one PageStore replace the two historical pagers.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/paged.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/benchmarks.hh"
#include "util/units.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

/** The fixed-page configuration at `page_bytes`. */
PagedConfig
fixedConfig(std::uint64_t page_bytes)
{
    PagedConfig cfg = rampageConfig(oneGhz, page_bytes);
    cfg.pager.baseSramBytes = 512 * kib;
    return cfg;
}

/**
 * The same system described through the per-pid policy: base frame ==
 * default page == every explicit pid's page.  Degenerate by design.
 */
PagedConfig
degenerateConfig(std::uint64_t page_bytes)
{
    PagedConfig cfg = fixedConfig(page_bytes);
    cfg.pager.defaultPageBytes = page_bytes;
    cfg.pager.pageBytesByPid[0] = page_bytes;
    cfg.pager.pageBytesByPid[1] = page_bytes;
    return cfg;
}

class UniformEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(UniformEquivalence, DegenerateConfigNormalizesToUniform)
{
    auto hier = makeHierarchy(degenerateConfig(GetParam()));
    const PagedHierarchy &paged = asPaged(*hier);
    EXPECT_TRUE(paged.pager().uniform());
    EXPECT_EQ(paged.pager().pageBytes(), GetParam());
    EXPECT_EQ(hier->name(), "RAMpage");
}

TEST_P(UniformEquivalence, LayoutMatchesFixedPager)
{
    auto fixed = makeHierarchy(fixedConfig(GetParam()));
    auto degen = makeHierarchy(degenerateConfig(GetParam()));
    const PageStore &f = asPaged(*fixed).pager();
    const PageStore &d = asPaged(*degen).pager();
    EXPECT_EQ(f.sramBytes(), d.sramBytes());
    EXPECT_EQ(f.totalFrames(), d.totalFrames());
    EXPECT_EQ(f.osFrames(), d.osFrames());
    EXPECT_EQ(f.userFrames(), d.userFrames());
    EXPECT_EQ(f.osVirtEnd(), d.osVirtEnd());
    EXPECT_EQ(f.tableVirtBase(), d.tableVirtBase());
}

TEST_P(UniformEquivalence, StatsSnapshotIdenticalToFixedPager)
{
    SimConfig sim;
    sim.maxRefs = 120'000;
    sim.quantumRefs = 20'000;

    auto run = [&](const PagedConfig &cfg) {
        auto hier = makeHierarchy(cfg);
        Simulator driver(*hier, makeWorkload(), sim);
        return driver.run();
    };
    SimResult fixed = run(fixedConfig(GetParam()));
    SimResult degen = run(degenerateConfig(GetParam()));

    EXPECT_EQ(fixed.elapsedPs, degen.elapsedPs);
    EXPECT_EQ(fixed.systemName, degen.systemName);
    // The full statistics snapshot — every counter, every formula,
    // registered under the same names in the same order.
    EXPECT_EQ(fixed.stats.toJson().dump(), degen.stats.toJson().dump());
}

INSTANTIATE_TEST_SUITE_P(PageSizes, UniformEquivalence,
                         ::testing::Values(512, 1024, 4096));

} // namespace
} // namespace rampage
