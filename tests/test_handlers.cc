/**
 * @file
 * Tests for OS handler trace synthesis (paper §4.3, §4.6).
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/handlers.hh"

namespace rampage
{
namespace
{

TEST(Handlers, ContextSwitchIsAboutFourHundredRefs)
{
    // §4.6: "approximately 400 references per context switch".
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.contextSwitch(refs);
    EXPECT_EQ(refs.size(), HandlerTraces::contextSwitchLength);
    EXPECT_GE(refs.size(), 380u);
    EXPECT_LE(refs.size(), 420u);
}

TEST(Handlers, AllRefsCarryOsPid)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss(refs, {0x13000, 0x13040});
    handlers.pageFault(refs, {0x13080});
    handlers.contextSwitch(refs);
    for (const MemRef &ref : refs)
        ASSERT_EQ(ref.pid, osPid);
}

TEST(Handlers, TlbMissIncludesSuppliedProbes)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    std::vector<Addr> probes = {0x13000, 0x13140, 0x13280};
    handlers.tlbMiss(refs, probes);

    unsigned found = 0;
    for (const MemRef &ref : refs) {
        if (!ref.isInstr()) {
            ASSERT_LT(found, probes.size());
            EXPECT_EQ(ref.vaddr, probes[found]);
            ++found;
        }
    }
    EXPECT_EQ(found, probes.size());
    // Body length: fixed instructions plus the probes.
    EXPECT_EQ(refs.size(),
              HandlerTraces::tlbMissInstrs + probes.size());
}

TEST(Handlers, TlbMissProbesAreLoads)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss(refs, {0x13000});
    for (const MemRef &ref : refs) {
        if (!ref.isInstr()) {
            EXPECT_EQ(ref.kind, RefKind::Load);
        }
    }
}

TEST(Handlers, PageFaultMixesLoadsAndStores)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.pageFault(refs, {0x13000, 0x13014});
    unsigned loads = 0, stores = 0, fetches = 0;
    for (const MemRef &ref : refs) {
        if (ref.kind == RefKind::IFetch)
            ++fetches;
        else if (ref.kind == RefKind::Store)
            ++stores;
        else
            ++loads;
    }
    EXPECT_EQ(fetches, HandlerTraces::pageFaultInstrs);
    EXPECT_GT(loads, 0u);
    EXPECT_GT(stores, 0u);
}

TEST(Handlers, FetchesAreSequentialWithinBody)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss(refs, {});
    Addr prev = 0;
    bool first = true;
    for (const MemRef &ref : refs) {
        if (!ref.isInstr())
            continue;
        if (!first) {
            EXPECT_EQ(ref.vaddr, prev + 4);
        }
        prev = ref.vaddr;
        first = false;
    }
}

TEST(Handlers, BodiesFitCompactOsImage)
{
    // Every reference must land inside the fixed 12 KB OS image
    // (code 4 KB + data 8 KB) so the pinned-reserve arithmetic in
    // the pager holds.
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss(refs, {});
    handlers.pageFault(refs, {});
    for (int i = 0; i < 40; ++i)
        handlers.contextSwitch(refs); // rotates PCB slots
    for (const MemRef &ref : refs) {
        ASSERT_GE(ref.vaddr, osVirtBase);
        ASSERT_LT(ref.vaddr, osVirtBase + 12 * 1024)
            << std::hex << ref.vaddr;
    }
}

TEST(Handlers, ConsecutiveSwitchesTouchDifferentPcbs)
{
    HandlerTraces handlers;
    std::vector<MemRef> a, b;
    handlers.contextSwitch(a);
    handlers.contextSwitch(b);
    // Data reference sets differ between consecutive switches.
    bool differs = false;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (!a[i].isInstr() && !b[i].isInstr() &&
            a[i].vaddr != b[i].vaddr) {
            differs = true;
            break;
        }
    }
    EXPECT_TRUE(differs);
}

} // namespace
} // namespace rampage
