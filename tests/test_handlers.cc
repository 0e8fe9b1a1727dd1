/**
 * @file
 * Tests for OS handler trace synthesis (paper §4.3, §4.6).
 */

#include <gtest/gtest.h>

#include <string>
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

// ------------------------------------------------ run-width walks

/**
 * The handler-body rule spelled out reference by reference, as a
 * plain loop: `instrs` fetches from `entry`, a data reference after
 * every `per_data`-th fetch, any left over trailing the body, and the
 * trailing `store_fraction` of the data references stores.
 */
std::vector<MemRef>
referenceBody(Addr entry, unsigned instrs, const std::vector<Addr> &data,
              double store_fraction)
{
    std::vector<MemRef> out;
    const std::size_t n = data.size();
    const std::size_t stores_from =
        n - static_cast<std::size_t>(static_cast<double>(n) *
                                     store_fraction);
    const unsigned per_data =
        n > 0 ? instrs / static_cast<unsigned>(n) + 1 : instrs + 1;
    auto data_ref = [&](std::size_t d) {
        return MemRef{data[d],
                      d >= stores_from ? RefKind::Store : RefKind::Load,
                      osPid};
    };
    std::size_t d = 0;
    for (unsigned i = 0; i < instrs; ++i) {
        out.push_back(MemRef{entry + 4 * i, RefKind::IFetch, osPid});
        if (d < n && (i + 1) % per_data == 0)
            out.push_back(data_ref(d++));
    }
    for (; d < n; ++d)
        out.push_back(data_ref(d));
    return out;
}

std::vector<Addr>
probeList(unsigned n)
{
    std::vector<Addr> probes;
    for (unsigned i = 0; i < n; ++i)
        probes.push_back(0x13000 + 0x48 * i);
    return probes;
}

bool
sameRefs(const std::vector<MemRef> &a, const std::vector<MemRef> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].vaddr != b[i].vaddr || a[i].kind != b[i].kind ||
            a[i].pid != b[i].pid)
            return false;
    return true;
}

/**
 * Records a walk at one run width, expanding each run fetch by fetch,
 * and checks the run shape as it goes: a run stays inside one
 * run-aligned block, and two runs with no data reference between
 * them lie in different blocks (a run is never split needlessly).
 */
struct CheckingSink
{
    explicit CheckingSink(unsigned run_bytes) : runBytes(run_bytes) {}

    unsigned runBytes;
    std::vector<MemRef> refs;
    std::string error;
    bool lastWasRun = false;
    Addr lastRunBlock = 0;

    void
    fetchRun(Addr vaddr, unsigned k)
    {
        const Addr block = vaddr / runBytes;
        if (k == 0)
            error = "empty run";
        else if ((vaddr + 4 * (k - 1)) / runBytes != block)
            error = "run crosses a block";
        else if (lastWasRun && block == lastRunBlock)
            error = "same-block runs with no data reference between";
        for (unsigned j = 0; j < k; ++j)
            refs.push_back(MemRef{vaddr + 4 * j, RefKind::IFetch, osPid});
        lastWasRun = true;
        lastRunBlock = block;
    }

    void
    data(Addr vaddr, bool is_store)
    {
        refs.push_back(MemRef{
            vaddr, is_store ? RefKind::Store : RefKind::Load, osPid});
        lastWasRun = false;
    }
};

TEST(HandlerWalk, VectorEmittersFollowTheInterleaveRule)
{
    // The vector emitters against the rule written out per reference.
    constexpr Addr tlb_entry = osVirtBase + 0x000;
    constexpr Addr fault_entry = osVirtBase + 0x100;
    constexpr Addr switch_entry = osVirtBase + 0x300;
    constexpr Addr data_base = osVirtBase + 0x1000;
    HandlerTraces handlers;
    for (unsigned n = 0; n <= 12; ++n) {
        const std::vector<Addr> probes = probeList(n);
        std::vector<MemRef> tlb;
        handlers.tlbMiss(tlb, probes);
        EXPECT_TRUE(sameRefs(
            tlb, referenceBody(tlb_entry, HandlerTraces::tlbMissInstrs,
                               probes, 0.0)))
            << n << " probes";

        std::vector<Addr> fault_data = probes;
        for (unsigned i = 0; i < HandlerTraces::pageFaultData; ++i)
            fault_data.push_back(data_base + 0x1400 + 8 * i);
        std::vector<MemRef> fault;
        handlers.pageFault(fault, probes);
        EXPECT_TRUE(sameRefs(
            fault,
            referenceBody(fault_entry, HandlerTraces::pageFaultInstrs,
                          fault_data, 0.4)))
            << n << " probes";
    }
    for (std::uint64_t seq = 0; seq < 20; ++seq) {
        std::vector<Addr> pcbs;
        for (unsigned i = 0; i < 50; ++i)
            pcbs.push_back(data_base + 0x100 * (seq % 18) + 8 * (i % 32));
        for (unsigned i = 0; i < 50; ++i)
            pcbs.push_back(data_base + 0x100 * ((seq + 1) % 18) +
                           8 * (i % 32));
        std::vector<MemRef> sw;
        handlers.contextSwitch(sw);
        EXPECT_TRUE(sameRefs(
            sw, referenceBody(switch_entry,
                              HandlerTraces::contextSwitchInstrs, pcbs,
                              0.5)))
            << "switch " << seq;
    }
}

TEST(HandlerWalk, RunsExpandToTheVectorEmitters)
{
    for (unsigned width = 4; width <= 128; width *= 2) {
        SCOPED_TRACE("run width " + std::to_string(width));
        HandlerTraces emitter;
        HandlerTraces walker;
        for (unsigned n = 0; n <= 12; ++n) {
            const std::vector<Addr> probes = probeList(n);

            std::vector<MemRef> tlb;
            emitter.tlbMiss(tlb, probes);
            CheckingSink tlb_walk{width};
            HandlerTraces::walkTlbMiss(probes, width, tlb_walk);
            EXPECT_EQ(tlb_walk.error, "") << n << " probes";
            EXPECT_TRUE(sameRefs(tlb_walk.refs, tlb)) << n << " probes";

            std::vector<MemRef> fault;
            emitter.pageFault(fault, probes);
            CheckingSink fault_walk{width};
            HandlerTraces::walkPageFault(probes, width, fault_walk);
            EXPECT_EQ(fault_walk.error, "") << n << " probes";
            EXPECT_TRUE(sameRefs(fault_walk.refs, fault))
                << n << " probes";

            // Both objects rotate their PCB slots in step.
            std::vector<MemRef> sw;
            emitter.contextSwitch(sw);
            CheckingSink sw_walk{width};
            walker.walkContextSwitch(width, sw_walk);
            EXPECT_EQ(sw_walk.error, "") << "switch " << n;
            EXPECT_TRUE(sameRefs(sw_walk.refs, sw)) << "switch " << n;
        }
    }
}

} // namespace
} // namespace rampage
