/**
 * @file
 * Configuration-validation tests: every unusable configuration must
 * fail fast by throwing ConfigError with a diagnostic — never crash,
 * silently mis-simulate, or kill the process (process exit is the CLI
 * handlers' job, see util/error.hh).
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/column_assoc.hh"
#include "core/conventional.hh"
#include "core/factory.hh"
#include "core/paged.hh"
#include "core/sweep.hh"
#include "os/page_store.hh"
#include "tlb/tlb.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace rampage
{
namespace
{

/** Assert `body` throws ConfigError whose message mentions `text`. */
template <typename Body>
void
expectConfigError(Body &&body, const std::string &text)
{
    try {
        body();
        FAIL() << "expected ConfigError containing '" << text << "'";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
            << "diagnostic was: " << e.what();
    }
}

TEST(ConfigValidation, CacheBlockMustBePowerOfTwo)
{
    CacheParams params;
    params.blockBytes = 48;
    expectConfigError([&] { SetAssocCache cache(params); },
                      "power of two");
}

TEST(ConfigValidation, CacheSizeMustBeBlockMultiple)
{
    CacheParams params;
    params.sizeBytes = 1000;
    params.blockBytes = 64;
    expectConfigError([&] { SetAssocCache cache(params); }, "multiple");
}

TEST(ConfigValidation, CacheAssociativityBounded)
{
    CacheParams params;
    params.sizeBytes = 128;
    params.blockBytes = 32;
    params.assoc = 8; // only 4 blocks exist
    expectConfigError([&] { SetAssocCache cache(params); },
                      "associativity");
}

TEST(ConfigValidation, TlbGeometry)
{
    TlbParams params;
    params.entries = 64;
    params.assoc = 48; // does not divide 64
    EXPECT_THROW({ Tlb tlb(params); }, ConfigError)
        << "incompatible TLB geometry must be rejected";
}

TEST(ConfigValidation, PagerPageSizePowerOfTwo)
{
    PageStoreParams params;
    params.pageBytes = 3000;
    expectConfigError([&] { PageStore pager(params); }, "power of two");
}

TEST(ConfigValidation, PagerReserveCannotSwallowSram)
{
    // The table (~20 B/frame) plus a 12 KB fixed image cannot fit in
    // an SRAM this small: 4 KiB = 32 frames of 128 B, and the fixed
    // image alone needs 96 frames.
    PageStoreParams params;
    params.pageBytes = 128;
    params.baseSramBytes = 4 * kib;
    params.osFixedBytes = 12 * kib;
    expectConfigError([&] { PageStore pager(params); }, "reserve");
}

TEST(ConfigValidation, PagerFrameCountFitsThirtyTwoBits)
{
    // 2^32 frames of 128 B (512 GiB, plus the reclaimed tag bytes)
    // overflow the page table's 32-bit frame links; the bound is
    // checked before any per-frame state is allocated.
    PageStoreParams params;
    params.pageBytes = 128;
    params.baseSramBytes = (std::uint64_t{1} << 32) * 128;
    expectConfigError([&] { PageStore pager(params); },
                      "SRAM frame count");
}

TEST(ConfigValidation, RampagePageAtLeastL1Block)
{
    RampageConfig cfg = rampageConfig(1'000'000'000ull, 1024);
    cfg.pager.pageBytes = 16; // below the 32 B L1 block
    EXPECT_THROW({ makeHierarchy(cfg); }, ConfigError);
}

TEST(ConfigValidation, RampagePageAtMostDramPage)
{
    RampageConfig cfg = rampageConfig(1'000'000'000ull, 8192);
    expectConfigError([&] { makeHierarchy(cfg); }, "DRAM page");
}

TEST(ConfigValidation, ConventionalL2BlockAtLeastL1Block)
{
    ConventionalConfig cfg = baselineConfig(1'000'000'000ull, 16);
    expectConfigError([&] { ConventionalHierarchy hier(cfg); },
                      "smaller");
}

TEST(ConfigValidation, VictimCacheBehindColumnAssocRejected)
{
    ConventionalConfig cfg = baselineConfig(1'000'000'000ull, 1024);
    cfg.l2Style = ConventionalConfig::L2Style::ColumnAssoc;
    cfg.victimEntries = 4;
    expectConfigError([&] { ConventionalHierarchy hier(cfg); },
                      "victim");
}

TEST(ConfigValidation, ColumnAssocNeedsTwoSets)
{
    expectConfigError([&] { ColumnAssocCache cache(32, 32); },
                      "two sets");
}

TEST(ConfigValidation, MalformedQuantitiesThrow)
{
    expectConfigError([&] { parseByteSize("twelve"); }, "cannot parse");
    expectConfigError([&] { parseByteSize("4XB"); }, "suffix");
    expectConfigError([&] { parseFrequency("-3GHz"); }, "positive");
}

// ------------------------------------------------------------------
// The invalid classes the fuzzer's hostile-mutation probe drills
// (check/config_gen.cc mutateHostile): one explicit regression test
// per class, each pinning that validation rejects with a diagnostic
// that names the offending field or constraint.  The standby-list
// bound was in fact *discovered* by this probe — it used to escape as
// an assertion failure deep in page_replacement.cc.

/** The paged baseline each hostile-class test corrupts one field of. */
HierarchyConfig
hostilePagedBase()
{
    return HierarchyConfig(rampageConfig(1'000'000'000ull, 1024));
}

HierarchyConfig
hostileConvBase()
{
    return HierarchyConfig(baselineConfig(1'000'000'000ull, 128));
}

TEST(HostileConfigClasses, L1BlockGeometry)
{
    HierarchyConfig bad = hostilePagedBase();
    bad.common().l1BlockBytes = 48; // non-power-of-two
    expectConfigError([&] { makeHierarchy(bad); }, "power of two");

    bad = hostilePagedBase();
    bad.common().l1BlockBytes = 0;
    expectConfigError([&] { makeHierarchy(bad); }, "power of two");

    bad = hostileConvBase();
    bad.common().l1SizeBytes = bad.common().l1BlockBytes * 5 + 1;
    expectConfigError([&] { makeHierarchy(bad); },
                      "multiple of the block");

    bad = hostileConvBase();
    bad.common().l1Assoc = 1u << 30;
    expectConfigError([&] { makeHierarchy(bad); }, "associativity");
}

TEST(HostileConfigClasses, TlbGeometry)
{
    HierarchyConfig bad = hostilePagedBase();
    bad.common().tlb.entries = 0;
    expectConfigError([&] { makeHierarchy(bad); },
                      "at least one entry");

    bad = hostilePagedBase();
    bad.common().tlb.entries = 64;
    bad.common().tlb.assoc = 3; // does not divide the entries
    expectConfigError([&] { makeHierarchy(bad); }, "incompatible");

    bad = hostileConvBase();
    bad.common().tlb.entries = 48;
    bad.common().tlb.assoc = 4; // 12 sets: not a power of two
    expectConfigError([&] { makeHierarchy(bad); }, "set count");
}

TEST(HostileConfigClasses, ConventionalL2Geometry)
{
    HierarchyConfig bad = hostileConvBase();
    bad.conventional.l2BlockBytes = bad.common().l1BlockBytes / 2;
    expectConfigError([&] { makeHierarchy(bad); }, "smaller");

    bad = hostileConvBase();
    bad.conventional.l2SizeBytes =
        bad.conventional.l2BlockBytes * 7 + 3;
    expectConfigError([&] { makeHierarchy(bad); }, "multiple");

    bad = hostileConvBase();
    bad.conventional.l2Style = ConventionalConfig::L2Style::ColumnAssoc;
    bad.conventional.victimEntries = 4;
    expectConfigError([&] { makeHierarchy(bad); }, "victim");
}

TEST(HostileConfigClasses, PagerFrameGeometry)
{
    HierarchyConfig bad = hostilePagedBase();
    bad.paged.pager.pageBytes = 384;
    expectConfigError([&] { makeHierarchy(bad); },
                      "SRAM page size must be a power of two");

    bad = hostilePagedBase();
    bad.paged.pager.pageBytes = bad.common().dramPageBytes * 2;
    expectConfigError([&] { makeHierarchy(bad); },
                      "larger than the DRAM page");

    bad = hostilePagedBase();
    bad.paged.pager.baseSramBytes =
        bad.paged.pager.pageBytes * 3 + 1;
    expectConfigError([&] { makeHierarchy(bad); },
                      "multiple of the page size");
}

TEST(HostileConfigClasses, PerPidPageSizePolicy)
{
    HierarchyConfig bad = hostilePagedBase();
    bad.paged.pager.defaultPageBytes =
        bad.paged.pager.pageBytes * 3; // non-power-of-two multiple
    expectConfigError([&] { makeHierarchy(bad); },
                      "invalid for base frame");

    bad = hostilePagedBase();
    bad.paged.pager.defaultPageBytes =
        bad.paged.pager.pageBytes / 2; // below the base frame
    expectConfigError([&] { makeHierarchy(bad); },
                      "invalid for base frame");
}

TEST(HostileConfigClasses, OsReserveAndLayout)
{
    HierarchyConfig bad = hostilePagedBase();
    bad.paged.pager.osFixedBytes = std::uint64_t{1} << 62;
    expectConfigError([&] { makeHierarchy(bad); },
                      "operating-system reserve");
}

TEST(HostileConfigClasses, StandbyListBound)
{
    // The generator-discovered gap: a standby list at least as large
    // as the evictable SRAM used to trip an assertion (InternalError)
    // inside PageReplacement instead of failing validation.
    HierarchyConfig bad = hostilePagedBase();
    bad.paged.pager.repl = PageReplKind::Standby;
    bad.paged.pager.standbyPages = std::uint64_t{1} << 62;
    expectConfigError([&] { makeHierarchy(bad); }, "standbyPages");
}

TEST(ConfigValidation, ErrorsCarryTheirCategory)
{
    try {
        parseByteSize("twelve");
        FAIL() << "expected ConfigError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        EXPECT_STREQ(errorCategoryName(e.category()), "config");
    }
}

TEST(ConfigValidation, AssertionFailuresAreInternalErrors)
{
    // RAMPAGE_ASSERT raises InternalError (a simulator bug, not a
    // user error) with file/line context.
    try {
        cycleTimePs(0);
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Internal);
        EXPECT_NE(std::string(e.what()).find("units.cc"),
                  std::string::npos);
    }
}

} // namespace
} // namespace rampage
