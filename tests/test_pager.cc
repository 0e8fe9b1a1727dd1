/**
 * @file
 * Unit tests for the SRAM main-memory page store in its uniform
 * (fixed page size) policy (paper §2.2, §4.5), including the paper's
 * capacity arithmetic.
 */

#include <gtest/gtest.h>

#include "os/page_store.hh"
#include "util/random.hh"

namespace rampage
{
namespace
{

PageStoreParams
smallParams(std::uint64_t page_bytes = 1024,
            std::uint64_t sram_bytes = 64 * 1024)
{
    PageStoreParams p;
    p.pageBytes = page_bytes;
    p.baseSramBytes = sram_bytes;
    p.osFixedBytes = 4 * 1024;
    return p;
}

TEST(Pager, PaperCapacityAt128BytePages)
{
    // §4.5: at 128 B pages the SRAM main memory is 4 MB + 128 KB of
    // reclaimed tag space = 4.125 MB = 33792 frames.
    PageStoreParams p;
    p.pageBytes = 128;
    PageStore pager(p);
    EXPECT_TRUE(pager.uniform());
    EXPECT_EQ(pager.sramBytes(), 4 * mib + 128 * kib);
    EXPECT_EQ(pager.totalFrames(), 33792u);
    // The pinned reserve stays near the paper's 5336 pages (667 KB).
    EXPECT_GT(pager.osFrames(), 5000u);
    EXPECT_LT(pager.osFrames(), 6200u);
}

TEST(Pager, PaperCapacityAt4KPages)
{
    // §4.5: tag bonus scales down with page count; at 4 KB pages the
    // bonus is 4 KB (one page) and the OS reserve is a handful of
    // pages (the paper says 6; ours is slightly larger because the
    // fixed handler image is modelled explicitly).
    PageStoreParams p;
    p.pageBytes = 4096;
    PageStore pager(p);
    EXPECT_EQ(pager.sramBytes(), 4 * mib + 4096);
    EXPECT_EQ(pager.totalFrames(), 1025u);
    EXPECT_GE(pager.osFrames(), 6u);
    EXPECT_LE(pager.osFrames(), 12u);
}

TEST(Pager, ColdFillUsesFreeFramesFirst)
{
    PageStore pager(smallParams());
    std::uint64_t first = pager.osFrames();
    auto fault = pager.handleFault(1, 100);
    EXPECT_EQ(fault.frame, first);
    EXPECT_TRUE(fault.victims.empty());
    fault = pager.handleFault(1, 101);
    EXPECT_EQ(fault.frame, first + 1);
    EXPECT_EQ(pager.stats().coldFills, 2u);
}

TEST(Pager, LookupFindsFaultedPage)
{
    PageStore pager(smallParams());
    auto fault = pager.handleFault(2, 55);
    auto look = pager.lookup(2, 55);
    EXPECT_TRUE(look.found);
    EXPECT_EQ(look.frame, fault.frame);
    EXPECT_FALSE(pager.lookup(2, 56).found);
}

TEST(Pager, EvictionReportsVictimAndUnmapsIt)
{
    PageStore pager(smallParams());
    std::uint64_t user = pager.userFrames();
    // Fill the whole user space.
    for (std::uint64_t vpn = 0; vpn < user; ++vpn)
        pager.handleFault(1, vpn);
    // Next fault must evict someone.
    auto fault = pager.handleFault(1, 10'000);
    ASSERT_EQ(fault.victims.size(), 1u);
    EXPECT_EQ(fault.victims[0].pid, 1);
    EXPECT_FALSE(pager.lookup(1, fault.victims[0].vpn).found);
    EXPECT_TRUE(pager.lookup(1, 10'000).found);
    EXPECT_GE(fault.frame, pager.osFrames());
}

TEST(Pager, DirtyVictimFlagged)
{
    PageStore pager(smallParams());
    std::uint64_t user = pager.userFrames();
    for (std::uint64_t vpn = 0; vpn < user; ++vpn) {
        auto fault = pager.handleFault(1, vpn);
        pager.markDirty(fault.frame);
    }
    auto fault = pager.handleFault(1, 99'999);
    ASSERT_EQ(fault.victims.size(), 1u);
    EXPECT_TRUE(fault.victims[0].dirty);
    EXPECT_EQ(pager.stats().dirtyWritebacks, 1u);
    // The reused frame starts clean.
    EXPECT_FALSE(pager.isDirty(fault.frame));
}

TEST(Pager, FaultProbesLieInPinnedTable)
{
    PageStore pager(smallParams());
    auto fault = pager.handleFault(1, 5);
    ASSERT_FALSE(fault.probes.empty());
    for (Addr addr : fault.probes) {
        EXPECT_GE(addr, pager.tableVirtBase());
        EXPECT_LT(addr, pager.osVirtEnd());
    }
}

TEST(Pager, OsPhysAddrIsIdentityIntoReserve)
{
    PageStore pager(smallParams());
    EXPECT_EQ(pager.osPhysAddr(osVirtBase), 0u);
    EXPECT_EQ(pager.osPhysAddr(osVirtBase + 123), 123u);
    // The whole OS image maps below the pinned boundary.
    Addr last = pager.osVirtEnd() - 1;
    EXPECT_LT(pager.osPhysAddr(last),
              pager.osFrames() * pager.pageBytes());
}

TEST(Pager, PhysAddrComposition)
{
    PageStore pager(smallParams(1024));
    EXPECT_EQ(pager.physAddr(3, 17), 3 * 1024 + 17u);
}

TEST(Pager, TouchKeepsHotPagesResidentUnderClock)
{
    // Property: once the degenerate all-referenced state clears (the
    // clock's first sweep wipes every mark), a constantly-touched
    // page survives arbitrary fault churn.
    PageStore pager(smallParams());
    auto hot = pager.handleFault(9, 1);
    std::uint64_t hot_frame = hot.frame;
    bool warmed = false;
    for (std::uint64_t vpn = 100; vpn < 100 + 6 * pager.userFrames();
         ++vpn) {
        pager.touch(hot_frame);
        auto fault = pager.handleFault(9, vpn);
        if (!pager.lookup(9, 1).found) {
            // Only permissible during the first post-fill sweep,
            // before the touch stream can differentiate the page.
            ASSERT_FALSE(warmed) << "hot page evicted while warm";
            auto refault = pager.handleFault(9, 1);
            hot_frame = refault.frame;
            warmed = true;
        }
        if (!fault.victims.empty())
            warmed = true;
    }
    EXPECT_TRUE(pager.lookup(9, 1).found);
}

TEST(Pager, StandbyPolicyIntegrates)
{
    PageStoreParams p = smallParams();
    p.repl = PageReplKind::Standby;
    p.standbyPages = 4;
    PageStore pager(p);
    for (std::uint64_t vpn = 0; vpn < 3 * pager.userFrames(); ++vpn)
        pager.handleFault(1, vpn);
    EXPECT_GT(pager.stats().faults, pager.userFrames());
}

class PagerPageSizes : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PagerPageSizes, SizingInvariants)
{
    // The paper's sweep: every page size yields a consistent layout.
    PageStoreParams p;
    p.pageBytes = GetParam();
    PageStore pager(p);
    EXPECT_EQ(pager.sramBytes(), pager.totalFrames() * pager.pageBytes());
    EXPECT_GE(pager.sramBytes(), 4 * mib);
    EXPECT_GT(pager.userFrames(), 0u);
    // The reserve covers the fixed OS image plus the whole table.
    EXPECT_GE(pager.osFrames() * pager.pageBytes(),
              p.osFixedBytes + pager.table().tableBytes());
    // Bonus never exceeds the tag-equivalent budget.
    EXPECT_LE(pager.sramBytes(),
              4 * mib + (4 * mib / p.pageBytes) * p.tagBytesPerBlock);
}

INSTANTIATE_TEST_SUITE_P(PaperSweep, PagerPageSizes,
                         ::testing::Values(128, 256, 512, 1024, 2048,
                                           4096));

} // namespace
} // namespace rampage
