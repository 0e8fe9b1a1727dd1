/**
 * @file
 * Behavioural tests for the RAMpage hierarchy (§2, §4.5): full
 * associativity of the SRAM main memory, pinned operating-system
 * reserve, TLB flush on page replacement, fault timing, and
 * deferrable transfer time for context-switch-on-miss.
 */

#include <gtest/gtest.h>

#include "core/factory.hh"
#include "core/paged.hh"
#include "core/sweep.hh"
#include "util/random.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

MemRef
load(Addr addr, Pid pid = 0)
{
    return MemRef{addr, RefKind::Load, pid};
}

MemRef
store(Addr addr, Pid pid = 0)
{
    return MemRef{addr, RefKind::Store, pid};
}

MemRef
fetch(Addr addr, Pid pid = 0)
{
    return MemRef{addr, RefKind::IFetch, pid};
}

/** A small RAMpage system for fast targeted tests. */
RampageConfig
smallConfig(std::uint64_t page_bytes = 1024, bool switch_on_miss = false)
{
    RampageConfig cfg = rampageConfig(oneGhz, page_bytes, switch_on_miss);
    cfg.pager.baseSramBytes = 64 * kib;
    cfg.pager.osFixedBytes = 12 * kib;
    return cfg;
}

TEST(Rampage, FirstAccessFaultsAndPaysPageTransfer)
{
    auto hier_owner = makeHierarchy(smallConfig(1024));
    PagedHierarchy &hier = asPaged(*hier_owner);
    auto out = hier.access(load(0x10000000));
    EXPECT_TRUE(out.pageFault);
    const EventCounts &c = hier.counts();
    EXPECT_EQ(c.tlbMisses, 1u);
    EXPECT_EQ(c.l2Misses, 1u);
    EXPECT_EQ(c.dramReads, 1u);
    // One 1 KB page read: 50 ns + 512 beats = 690 ns.
    EXPECT_EQ(c.dramPs, 690'000u);
    // Blocking mode: nothing deferred.
    EXPECT_EQ(out.deferPs, 0u);
    EXPECT_GT(out.cpuPs, 690'000u);
}

TEST(Rampage, ResidentPageHitsWithoutDram)
{
    auto hier_owner = makeHierarchy(smallConfig(1024));
    PagedHierarchy &hier = asPaged(*hier_owner);
    hier.access(load(0x10000000));
    Tick dram_before = hier.counts().dramPs;
    auto out = hier.access(load(0x10000010)); // same L1 block
    EXPECT_EQ(out.cpuPs, 0u); // pipelined data hit
    // Different L1 block, same resident page: 12-cycle SRAM access.
    out = hier.access(load(0x10000040));
    EXPECT_EQ(out.cpuPs, 12'000u);
    EXPECT_EQ(hier.counts().dramPs, dram_before);
}

TEST(Rampage, TlbMissOnResidentPageNeverTouchesDram)
{
    // §2.3: with the table pinned, a TLB miss is serviced without
    // going to DRAM unless the page itself has faulted out.
    RampageConfig cfg = smallConfig(1024);
    cfg.common.tlb.entries = 4; // tiny TLB forces misses
    auto hier_owner = makeHierarchy(cfg);
    PagedHierarchy &hier = asPaged(*hier_owner);
    // Touch 8 pages (all fit in SRAM), thrashing the 4-entry TLB.
    for (Addr page = 0; page < 8; ++page)
        hier.access(load(0x10000000 + page * 1024));
    Tick dram_after_faults = hier.counts().dramPs;
    std::uint64_t faults = hier.counts().l2Misses;
    for (int round = 0; round < 5; ++round)
        for (Addr page = 0; page < 8; ++page)
            hier.access(load(0x10000000 + page * 1024));
    EXPECT_GT(hier.counts().tlbMisses, 8u); // TLB thrashed
    EXPECT_EQ(hier.counts().l2Misses, faults); // no new faults
    EXPECT_EQ(hier.counts().dramPs, dram_after_faults); // no DRAM
}

TEST(Rampage, FullAssociativityAbsorbsAnyLayout)
{
    // Pages that would conflict in any set-indexed cache coexist in
    // the paged SRAM: touching N <= capacity pages repeatedly faults
    // exactly N times.
    auto hier_owner = makeHierarchy(smallConfig(1024));
    PagedHierarchy &hier = asPaged(*hier_owner);
    std::uint64_t user = hier.pager().userFrames();
    Rng rng(3);
    std::vector<Addr> pages;
    for (std::uint64_t i = 0; i < user; ++i)
        pages.push_back(0x10000000 + rng.below(1 << 28) * 1024);
    for (int round = 0; round < 5; ++round)
        for (Addr page : pages)
            hier.access(load(page));
    EXPECT_LE(hier.counts().l2Misses, pages.size());
}

TEST(Rampage, EvictionFlushesTlbEntry)
{
    // §2.3: "If a page is replaced from the SRAM main memory, its
    // entry (if it has one) in the TLB is flushed."
    auto hier_owner = makeHierarchy(smallConfig(1024));
    PagedHierarchy &hier = asPaged(*hier_owner);
    std::uint64_t user = hier.pager().userFrames();
    // Fill SRAM, then touch one more page to force an eviction.
    for (std::uint64_t i = 0; i <= user; ++i)
        hier.access(load(0x10000000 + i * 1024));
    EXPECT_GT(hier.tlb().stats().flushes, 0u);
}

TEST(Rampage, EvictedPageFaultsAgainAndStaysCoherent)
{
    auto hier_owner = makeHierarchy(smallConfig(1024));
    PagedHierarchy &hier = asPaged(*hier_owner);
    std::uint64_t user = hier.pager().userFrames();
    hier.access(store(0x10000000)); // page A, dirtied in L1
    // Evict A by sweeping more pages than the SRAM holds.
    for (std::uint64_t i = 1; i <= user + 4; ++i)
        hier.access(load(0x10000000 + i * 1024));
    std::uint64_t dirty_wb = hier.counts().dramWrites;
    // A's dirty L1 data must have been flushed with the page.
    EXPECT_GE(dirty_wb, 1u);
    // Re-touching A faults it back in.
    std::uint64_t faults = hier.counts().l2Misses;
    hier.access(load(0x10000000));
    EXPECT_EQ(hier.counts().l2Misses, faults + 1);
}

TEST(Rampage, OsRegionBypassesTlbAndNeverFaults)
{
    auto hier_owner = makeHierarchy(smallConfig(1024));
    PagedHierarchy &hier = asPaged(*hier_owner);
    std::uint64_t tlb_misses = hier.counts().tlbMisses;
    auto out = hier.access(fetch(osVirtBase, osPid));
    EXPECT_FALSE(out.pageFault);
    EXPECT_EQ(hier.counts().tlbMisses, tlb_misses);
    EXPECT_EQ(hier.counts().dramReads, 0u);
}

TEST(Rampage, PinnedReserveSurvivesHeavyChurn)
{
    // The OS frames must never be chosen as victims: handler code
    // keeps hitting after arbitrarily heavy user paging.
    RampageConfig cfg = smallConfig(512);
    auto hier_owner = makeHierarchy(cfg);
    PagedHierarchy &hier = asPaged(*hier_owner);
    Rng rng(7);
    for (int i = 0; i < 20000; ++i)
        hier.access(load(0x10000000 + rng.below(1 << 22)));
    // Handler fetches still resolve below the pinned boundary.
    Addr os_phys = hier.pager().osPhysAddr(osVirtBase);
    EXPECT_LT(os_phys,
              hier.pager().osFrames() * hier.pager().pageBytes());
    // And the table still resolves every resident page: spot check.
    auto look = hier.pager().lookup(0, (0x10000000 >> 9));
    (void)look; // structural: lookup itself must not crash
}

TEST(Rampage, SwitchOnMissDefersTransferTime)
{
    auto blocking_owner = makeHierarchy(smallConfig(1024, false));
    PagedHierarchy &blocking = asPaged(*blocking_owner);
    auto switching_owner = makeHierarchy(smallConfig(1024, true));
    PagedHierarchy &switching = asPaged(*switching_owner);
    auto out_b = blocking.access(load(0x10000000));
    auto out_s = switching.access(load(0x10000000));
    EXPECT_TRUE(out_s.pageFault);
    // The page-read transfer (690 ns) is deferrable under
    // switch-on-miss; total work is identical.
    EXPECT_EQ(out_s.deferPs, 690'000u);
    EXPECT_EQ(out_b.cpuPs, out_s.cpuPs + out_s.deferPs);
}

TEST(Rampage, DirtyEvictionDefersWriteAndRead)
{
    RampageConfig cfg = smallConfig(1024, true);
    auto hier_owner = makeHierarchy(cfg);
    PagedHierarchy &hier = asPaged(*hier_owner);
    std::uint64_t user = hier.pager().userFrames();
    for (std::uint64_t i = 0; i < user; ++i)
        hier.access(store(0x10000000 + i * 1024));
    // All pages dirty (write-allocate leaves L1 dirty; flush on evict
    // marks the page).  The next fault defers write + read.
    auto out = hier.access(load(0x20000000));
    ASSERT_TRUE(out.pageFault);
    EXPECT_EQ(out.deferPs, 2 * 690'000u);
}

TEST(Rampage, BreakdownMatchesEventTotals)
{
    auto hier_owner = makeHierarchy(smallConfig(1024));
    PagedHierarchy &hier = asPaged(*hier_owner);
    Rng rng(9);
    Tick accumulated = 0;
    for (int i = 0; i < 5000; ++i) {
        MemRef ref;
        ref.vaddr = 0x10000000 + rng.below(1 << 20);
        ref.kind = rng.chance(0.7) ? RefKind::IFetch : RefKind::Load;
        if (ref.isInstr())
            ref.vaddr = 0x400000 + rng.below(1 << 14) * 4;
        ref.pid = 0;
        auto out = hier.access(ref);
        accumulated += out.cpuPs + out.deferPs;
    }
    // The per-access times must sum to the priced event totals.
    EXPECT_EQ(accumulated, hier.totalPs(oneGhz));
}

TEST(Rampage, PageSizeSweepConstructs)
{
    for (std::uint64_t page : blockSizeSweep()) {
        auto hier_owner = makeHierarchy(rampageConfig(oneGhz, page));
        PagedHierarchy &hier = asPaged(*hier_owner);
        EXPECT_EQ(hier.pager().pageBytes(), page);
        EXPECT_EQ(hier.l2Name(), "SRAM MM");
    }
}

TEST(Rampage, NameReflectsMode)
{
    EXPECT_EQ(makeHierarchy(smallConfig(1024, false))->name(),
              "RAMpage");
    EXPECT_EQ(makeHierarchy(smallConfig(1024, true))->name(),
              "RAMpage+switch");
}

} // namespace
} // namespace rampage
