/**
 * @file
 * Tests for the experiment scaffolding: environment-driven scale,
 * issue-rate lists and the canonical §4 configurations.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/conventional.hh"
#include "core/paged.hh"
#include "core/sweep.hh"
#include "run_env.hh"
#include "util/error.hh"

namespace rampage
{
namespace
{

TEST(Sweep, DefaultScale)
{
    ::unsetenv("RAMPAGE_REFS");
    ::unsetenv("RAMPAGE_QUANTUM");
    ::unsetenv("RAMPAGE_FULL");
    ExperimentScale scale = experimentScale();
    EXPECT_EQ(scale.refs, 24'000'000u);
    EXPECT_EQ(scale.quantumRefs, 120'000u);
}

TEST(Sweep, EnvOverridesScale)
{
    ScopedEnv refs("RAMPAGE_REFS", "5000000");
    ScopedEnv quantum("RAMPAGE_QUANTUM", "50000");
    ExperimentScale scale = experimentScale();
    EXPECT_EQ(scale.refs, 5'000'000u);
    EXPECT_EQ(scale.quantumRefs, 50'000u);
}

TEST(Sweep, FullScaleIsPaperScale)
{
    ScopedEnv full("RAMPAGE_FULL", "1");
    ::unsetenv("RAMPAGE_REFS");
    ::unsetenv("RAMPAGE_QUANTUM");
    ExperimentScale scale = experimentScale();
    EXPECT_EQ(scale.refs, 1'100'000'000u); // §4.2
    EXPECT_EQ(scale.quantumRefs, 500'000u);
}

TEST(Sweep, ExplicitRefsBeatFullScale)
{
    ScopedEnv full("RAMPAGE_FULL", "1");
    ScopedEnv refs("RAMPAGE_REFS", "7");
    EXPECT_EQ(experimentScale().refs, 7u);
}

TEST(Sweep, DefaultRatesSpanPaperSweep)
{
    ::unsetenv("RAMPAGE_RATES");
    auto rates = issueRates();
    ASSERT_GE(rates.size(), 3u);
    EXPECT_EQ(rates.front(), 200'000'000u);  // §4.3 low end
    EXPECT_EQ(rates.back(), 4'000'000'000u); // §4.3 high end
    for (std::size_t i = 1; i < rates.size(); ++i)
        EXPECT_GT(rates[i], rates[i - 1]);
}

TEST(Sweep, RatesFromEnv)
{
    ScopedEnv env("RAMPAGE_RATES", "250MHz,1GHz");
    auto rates = issueRates();
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_EQ(rates[0], 250'000'000u);
    EXPECT_EQ(rates[1], 1'000'000'000u);
}

/** The ConfigError must name the variable and echo the bad text. */
void
expectScaleRejects(const char *var, const char *value)
{
    ScopedEnv env(var, value);
    try {
        experimentScale();
        FAIL() << var << "=" << value << " was accepted";
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find(var), std::string::npos) << what;
        EXPECT_NE(what.find(value), std::string::npos) << what;
    }
}

TEST(Sweep, RejectsNonNumericScale)
{
    // strtoull alone parses "abc" as 0 without setting errno; the
    // validated parser must refuse it instead.
    expectScaleRejects("RAMPAGE_REFS", "abc");
    expectScaleRejects("RAMPAGE_QUANTUM", "abc");
}

TEST(Sweep, RejectsTrailingJunkInScale)
{
    // "24x" silently truncates to 24 under bare strtoull.
    expectScaleRejects("RAMPAGE_REFS", "24x");
    expectScaleRejects("RAMPAGE_QUANTUM", "24x");
}

TEST(Sweep, RejectsSignedScale)
{
    // "-5" wraps to a huge unsigned value under bare strtoull.
    expectScaleRejects("RAMPAGE_REFS", "-5");
    expectScaleRejects("RAMPAGE_QUANTUM", "-5");
}

TEST(Sweep, RejectsOutOfRangeScale)
{
    expectScaleRejects("RAMPAGE_REFS", "99999999999999999999999999");
}

TEST(Sweep, RejectsZeroScale)
{
    ScopedEnv refs("RAMPAGE_REFS", "0");
    EXPECT_THROW(experimentScale(), ConfigError);
}

TEST(Sweep, RatesErrorNamesVariable)
{
    ScopedEnv env("RAMPAGE_RATES", "1GHz,garbage");
    try {
        issueRates();
        FAIL() << "RAMPAGE_RATES=1GHz,garbage was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("RAMPAGE_RATES"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sweep, ParseJobsValidates)
{
    // The --jobs / RAMPAGE_JOBS row of the run-settings table.
    EXPECT_EQ(settingsWithFlag("--jobs", "1").jobs, 1u);
    EXPECT_EQ(settingsWithFlag("--jobs", "4").jobs, 4u);
    EXPECT_EQ(settingsWithFlag("--jobs", "256").jobs, maxSweepJobs);
    EXPECT_THROW(applyRunFlag("--jobs", "abc"), ConfigError);
    EXPECT_THROW(applyRunFlag("--jobs", "4x"), ConfigError);
    EXPECT_THROW(applyRunFlag("--jobs", "-2"), ConfigError);
    EXPECT_THROW(applyRunFlag("--jobs", "0"), ConfigError);
    EXPECT_THROW(applyRunFlag("--jobs", "257"), ConfigError);
    EXPECT_THROW(applyRunFlag("--jobs", ""), ConfigError);
    clearRunFlags();
    ScopedEnv env("RAMPAGE_JOBS", "lots");
    try {
        runSettings();
        FAIL() << "RAMPAGE_JOBS=lots was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("RAMPAGE_JOBS"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sweep, ResolveJobsPrecedence)
{
    // CI runs the suite with RAMPAGE_JOBS set; park it during the
    // precedence checks and let ScopedEnv put it back afterwards.
    ScopedEnv outer("RAMPAGE_JOBS", nullptr);
    clearRunFlags();
    EXPECT_EQ(runSettings().jobs, 1u); // serial default

    {
        ScopedEnv env("RAMPAGE_JOBS", "3");
        EXPECT_EQ(runSettings().jobs, 3u);
        applyRunFlag("--jobs", "8"); // the flag beats the environment
        EXPECT_EQ(runSettings().jobs, 8u);
        clearRunFlags();
        EXPECT_EQ(runSettings().jobs, 3u);
    }
    EXPECT_EQ(runSettings().jobs, 1u);

    {
        ScopedEnv bad("RAMPAGE_JOBS", "4x");
        EXPECT_THROW(runSettings(), ConfigError);
    }
}

TEST(Sweep, BlockSizeSweepIsPapers)
{
    auto sizes = blockSizeSweep();
    ASSERT_EQ(sizes.size(), 6u);
    EXPECT_EQ(sizes.front(), 128u);
    EXPECT_EQ(sizes.back(), 4096u);
}

TEST(Sweep, BaselineConfigMatchesPaper)
{
    ConventionalConfig cfg = baselineConfig(200'000'000ull, 128);
    EXPECT_EQ(cfg.l2SizeBytes, 4 * mib);
    EXPECT_EQ(cfg.l2Assoc, 1u);
    EXPECT_EQ(cfg.common.l1SizeBytes, 16 * kib);
    EXPECT_EQ(cfg.common.l1BlockBytes, 32u);
    EXPECT_EQ(cfg.common.tlb.entries, 64u);
    EXPECT_EQ(cfg.common.tlb.assoc, 0u); // fully associative
    EXPECT_EQ(Hierarchy::l2HitCycles, 12u);
    EXPECT_EQ(ConventionalHierarchy::l1WritebackCycles, 12u);
    EXPECT_EQ(PagedHierarchy::l1WritebackCycles, 9u);
    EXPECT_EQ(DirectRambus::accessLatencyPs, 50'000u);
    EXPECT_EQ(DirectRambus::bytesPerBeat, 2u);
    EXPECT_EQ(cfg.common.dramPageBytes, 4096u);
}

TEST(Sweep, TwoWayConfigMatchesPaper)
{
    ConventionalConfig cfg = twoWayConfig(1'000'000'000ull, 2048);
    EXPECT_EQ(cfg.l2Assoc, 2u);
    EXPECT_EQ(cfg.l2Repl, ReplPolicy::Random); // §4.7
    EXPECT_EQ(cfg.l2BlockBytes, 2048u);
}

TEST(Sweep, RampageConfigMatchesPaper)
{
    RampageConfig cfg = rampageConfig(1'000'000'000ull, 128, true);
    EXPECT_EQ(cfg.pager.pageBytes, 128u);
    EXPECT_EQ(cfg.pager.baseSramBytes, 4 * mib);
    EXPECT_EQ(cfg.pager.tagBytesPerBlock, 4u);
    EXPECT_EQ(cfg.pager.repl, PageReplKind::Clock);
    EXPECT_TRUE(cfg.switchOnMiss);
}

} // namespace
} // namespace rampage
