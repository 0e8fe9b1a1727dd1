/**
 * @file
 * Unit and property tests for the TLB model (paper §2.3, §4.3).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "tlb/tlb.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace rampage
{
namespace
{

TEST(Tlb, MissThenHit)
{
    Tlb tlb;
    EXPECT_FALSE(tlb.lookup(1, 100).hit);
    tlb.insert(1, 100, 7);
    auto hit = tlb.lookup(1, 100);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.frame, 7u);
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, PidsAreSeparateAddressSpaces)
{
    Tlb tlb;
    tlb.insert(1, 100, 7);
    EXPECT_FALSE(tlb.lookup(2, 100).hit);
    tlb.insert(2, 100, 9);
    EXPECT_EQ(tlb.lookup(1, 100).frame, 7u);
    EXPECT_EQ(tlb.lookup(2, 100).frame, 9u);
}

TEST(Tlb, InsertRefreshesExistingMapping)
{
    Tlb tlb;
    tlb.insert(1, 100, 7);
    tlb.insert(1, 100, 8);
    EXPECT_EQ(tlb.lookup(1, 100).frame, 8u);
    EXPECT_EQ(tlb.validEntries(), 1u);
}

TEST(Tlb, InvalidateSingleEntry)
{
    Tlb tlb;
    tlb.insert(1, 100, 7);
    tlb.insert(1, 200, 8);
    EXPECT_TRUE(tlb.invalidate(1, 100));
    EXPECT_FALSE(tlb.invalidate(1, 100));
    EXPECT_FALSE(tlb.lookup(1, 100).hit);
    EXPECT_TRUE(tlb.lookup(1, 200).hit);
    EXPECT_EQ(tlb.stats().flushes, 1u);
}

TEST(Tlb, FlushAll)
{
    Tlb tlb;
    for (std::uint64_t vpn = 0; vpn < 10; ++vpn)
        tlb.insert(0, vpn, vpn);
    EXPECT_EQ(tlb.validEntries(), 10u);
    tlb.flushAll();
    EXPECT_EQ(tlb.validEntries(), 0u);
}

TEST(Tlb, CapacityNeverExceeded)
{
    TlbParams p;
    p.entries = 64; // the paper's TLB
    Tlb tlb(p);
    for (std::uint64_t vpn = 0; vpn < 1000; ++vpn)
        tlb.insert(0, vpn, vpn);
    EXPECT_EQ(tlb.validEntries(), 64u);
}

TEST(Tlb, FullyAssociativeHoldsExactlyCapacityHotSet)
{
    TlbParams p;
    p.entries = 64;
    Tlb tlb(p);
    // A 64-page hot set fits a fully-associative 64-entry TLB: after
    // the first pass, everything hits.
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn) {
        tlb.lookup(0, vpn);
        tlb.insert(0, vpn, vpn);
    }
    tlb.clearStats();
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t vpn = 0; vpn < 64; ++vpn)
            EXPECT_TRUE(tlb.lookup(0, vpn).hit);
    EXPECT_EQ(tlb.stats().missRatio(), 0.0);
}

TEST(Tlb, LruBeatsRandomOnCyclicSlightOverflow)
{
    // A 66-page cyclic sweep over a 64-entry TLB: LRU always misses
    // (pathological), random retains some entries.  This documents
    // why the paper's choice of random replacement is defensible.
    auto run = [](bool lru) {
        TlbParams p;
        p.entries = 64;
        p.lruReplacement = lru;
        Tlb tlb(p);
        for (int round = 0; round < 20; ++round)
            for (std::uint64_t vpn = 0; vpn < 66; ++vpn)
                if (!tlb.lookup(0, vpn).hit)
                    tlb.insert(0, vpn, vpn);
        return tlb.stats().missRatio();
    };
    EXPECT_GT(run(true), run(false));
}

TEST(Tlb, SetAssociativeGeometry)
{
    // The §6.3 future-work TLB: 1 K entries, 2-way.
    TlbParams p;
    p.entries = 1024;
    p.assoc = 2;
    Tlb tlb(p);
    for (std::uint64_t vpn = 0; vpn < 5000; ++vpn)
        tlb.insert(3, vpn, vpn);
    EXPECT_LE(tlb.validEntries(), 1024u);
    // A small hot set still fits.
    Tlb tlb2(p);
    for (std::uint64_t vpn = 0; vpn < 100; ++vpn)
        tlb2.insert(3, vpn, vpn);
    unsigned hits = 0;
    for (std::uint64_t vpn = 0; vpn < 100; ++vpn)
        if (tlb2.lookup(3, vpn).hit)
            ++hits;
    EXPECT_EQ(hits, 100u);
}

class TlbGeometry : public ::testing::TestWithParam<TlbParams>
{
};

TEST_P(TlbGeometry, ProbeAgreesWithLookup)
{
    Tlb tlb(GetParam());
    Rng rng(31);
    for (int i = 0; i < 3000; ++i) {
        Pid pid = static_cast<Pid>(rng.below(4));
        std::uint64_t vpn = rng.below(300);
        bool present = tlb.probe(pid, vpn);
        auto look = tlb.lookup(pid, vpn);
        ASSERT_EQ(present, look.hit);
        if (!look.hit)
            tlb.insert(pid, vpn, vpn * 10);
        ASSERT_TRUE(tlb.probe(pid, vpn));
        ASSERT_LE(tlb.validEntries(), GetParam().entries);
    }
}

/**
 * GoogleTest names each case after the raw bytes of its TlbParams,
 * padding included.  Static storage zero-fills that padding, so the
 * names stay the same from run to run; stack temporaries would leak
 * whatever bytes happened to be there.
 */
const TlbParams tlbGeometries[] = {
    {64, 0, false, 7},   {64, 0, true, 7}, {64, 2, false, 7},
    {1024, 2, false, 7}, {16, 4, true, 7}, {8, 0, false, 7},
};

INSTANTIATE_TEST_SUITE_P(Geometries, TlbGeometry,
                         ::testing::ValuesIn(tlbGeometries));

/**
 * Independent linear-scan TLB: the way scan that Tlb's hash index
 * replaced, kept deliberately naive (no index, no per-set counts) so
 * the differential tests below compare the indexed model against the
 * plain definition of a set-associative TLB.
 */
class ScanTlb
{
  public:
    explicit ScanTlb(const TlbParams &params)
        : lru(params.lruReplacement), rng(params.seed)
    {
        nWays = params.assoc == 0 ? params.entries : params.assoc;
        nSets = params.entries / nWays;
        ways.assign(params.entries, Way{});
    }

    TlbLookup
    lookup(Pid pid, std::uint64_t vpn, std::uint32_t &slot_out)
    {
        ++useCounter;
        std::uint32_t slot = slotOf(pid, vpn);
        if (slot == Tlb::noSlot) {
            ++stat.misses;
            return TlbLookup{};
        }
        ++stat.hits;
        if (lru)
            ways[slot].stamp = useCounter;
        slot_out = slot;
        return TlbLookup{true, ways[slot].frame};
    }

    void
    insert(Pid pid, std::uint64_t vpn, std::uint64_t frame)
    {
        ++useCounter;
        std::uint32_t slot = slotOf(pid, vpn);
        if (slot == Tlb::noSlot) {
            std::uint64_t base = setOf(pid, vpn) * nWays;
            std::uint64_t victim = base + nWays;
            for (std::uint64_t w = base; w < base + nWays; ++w) {
                if (!ways[w].valid) {
                    victim = w;
                    break;
                }
            }
            if (victim == base + nWays) {
                if (lru) {
                    victim = base;
                    for (std::uint64_t w = base + 1; w < base + nWays; ++w)
                        if (ways[w].stamp < ways[victim].stamp)
                            victim = w;
                } else {
                    victim = base + rng.below(nWays);
                }
            }
            slot = static_cast<std::uint32_t>(victim);
            ways[slot].valid = true;
            ways[slot].pid = pid;
            ways[slot].vpn = vpn;
        }
        ways[slot].frame = frame;
        ways[slot].stamp = useCounter;
    }

    bool
    invalidate(Pid pid, std::uint64_t vpn)
    {
        std::uint32_t slot = slotOf(pid, vpn);
        if (slot == Tlb::noSlot)
            return false;
        ways[slot].valid = false;
        ++stat.flushes;
        return true;
    }

    void
    flushAll()
    {
        for (Way &way : ways)
            way.valid = false;
    }

    std::uint32_t
    slotOf(Pid pid, std::uint64_t vpn) const
    {
        std::uint64_t base = setOf(pid, vpn) * nWays;
        for (std::uint64_t w = base; w < base + nWays; ++w)
            if (ways[w].valid && ways[w].pid == pid && ways[w].vpn == vpn)
                return static_cast<std::uint32_t>(w);
        return Tlb::noSlot;
    }

    unsigned
    validEntries() const
    {
        unsigned count = 0;
        for (const Way &way : ways)
            count += way.valid ? 1 : 0;
        return count;
    }

    TlbStats stat;

  private:
    struct Way
    {
        bool valid = false;
        Pid pid = 0;
        std::uint64_t vpn = 0;
        std::uint64_t frame = 0;
        std::uint64_t stamp = 0;
    };

    std::uint64_t
    setOf(Pid pid, std::uint64_t vpn) const
    {
        return (vpn ^ (static_cast<std::uint64_t>(pid) << 13)) & (nSets - 1);
    }

    bool lru;
    Rng rng;
    unsigned nWays;
    std::uint64_t nSets;
    std::vector<Way> ways;
    std::uint64_t useCounter = 0;
};

struct Key
{
    Pid pid;
    std::uint64_t vpn;
};

/**
 * Drive a Tlb and a ScanTlb with the same seeded random operation
 * sequence over `keys`, asserting agreement after every operation:
 * hit/miss, frame and answering slot, statistics, validEntries(), and
 * slotOf() for the key just touched plus one other.  The model's own
 * audit (including the tlb.index invariant) must stay clean.
 */
void
runDifferential(const TlbParams &params, const std::vector<Key> &keys,
                int ops, std::uint64_t seed, int audit_every)
{
    Tlb tlb(params);
    ScanTlb ref(params);
    Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        const Key &key = keys[rng.below(keys.size())];
        std::uint64_t draw = rng.below(1000);
        SCOPED_TRACE("op " + std::to_string(op) + " draw " +
                     std::to_string(draw) + " pid " +
                     std::to_string(key.pid) + " vpn " +
                     std::to_string(key.vpn));
        if (draw < 450) {
            std::uint32_t got_slot = Tlb::noSlot;
            std::uint32_t want_slot = Tlb::noSlot;
            TlbLookup got = tlb.lookup(key.pid, key.vpn, got_slot);
            TlbLookup want = ref.lookup(key.pid, key.vpn, want_slot);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.frame, want.frame);
            ASSERT_EQ(got_slot, want_slot);
        } else if (draw < 800) {
            std::uint64_t frame = rng.below(1u << 20);
            tlb.insert(key.pid, key.vpn, frame);
            ref.insert(key.pid, key.vpn, frame);
        } else if (draw < 997) {
            ASSERT_EQ(tlb.invalidate(key.pid, key.vpn),
                      ref.invalidate(key.pid, key.vpn));
        } else {
            tlb.flushAll();
            ref.flushAll();
        }
        ASSERT_EQ(tlb.stats().hits, ref.stat.hits);
        ASSERT_EQ(tlb.stats().misses, ref.stat.misses);
        ASSERT_EQ(tlb.stats().flushes, ref.stat.flushes);
        ASSERT_EQ(tlb.validEntries(), ref.validEntries());
        ASSERT_EQ(tlb.slotOf(key.pid, key.vpn),
                  ref.slotOf(key.pid, key.vpn));
        const Key &other = keys[rng.below(keys.size())];
        ASSERT_EQ(tlb.slotOf(other.pid, other.vpn),
                  ref.slotOf(other.pid, other.vpn));
        ASSERT_EQ(tlb.probe(other.pid, other.vpn),
                  ref.slotOf(other.pid, other.vpn) != Tlb::noSlot);
        if (op % audit_every == 0) {
            AuditContext ctx("tlb differential");
            tlb.auditState(ctx);
            ASSERT_TRUE(ctx.clean()) << ctx.violations().front().invariant
                                     << ": "
                                     << ctx.violations().front().detail;
        }
    }
}

TEST(TlbDifferential, MatchesLinearScanAcrossGeometries)
{
    std::vector<unsigned> sizes = {1, 2, 3, 4, 5, 8, 48, 64, 100, 256, 1024};
    int geometries = 0;
    for (unsigned entries : sizes) {
        for (unsigned assoc : {0u, 1u, 2u, 4u}) {
            unsigned ways = assoc == 0 ? entries : assoc;
            if (ways > entries || entries % ways != 0 ||
                !isPowerOfTwo(entries / ways))
                continue;
            for (bool lru : {false, true}) {
                TlbParams params{entries, assoc, lru, 7 + entries};
                SCOPED_TRACE("entries " + std::to_string(entries) +
                             " assoc " + std::to_string(assoc) +
                             (lru ? " lru" : " random"));
                // A key space about twice the capacity, over four
                // pids plus the OS pid, so hits, misses, evictions and
                // invalidations all occur.
                std::vector<Key> keys;
                for (std::uint64_t vpn = 0; vpn < entries / 2 + 4; ++vpn)
                    for (Pid pid : {Pid{0}, Pid{1}, Pid{3}, osPid})
                        keys.push_back({pid, vpn * 37 + (pid & 1)});
                runDifferential(params, keys, 4000, entries * 7 + assoc,
                                entries > 64 ? 500 : 1);
                ++geometries;
            }
        }
    }
    EXPECT_EQ(geometries, 58);
}

TEST(TlbDifferential, ChurnWrapsAndSplitsProbeChains)
{
    // Keys chosen so their index home positions crowd the last few
    // positions of an 8-entry TLB's 32-position index: probe chains
    // wrap past the end, and random invalidations delete from their
    // middle, exercising every backward-shift case.  The key search
    // mirrors Tlb's index hash; were that hash to change, this stays
    // a valid (if less pointed) differential test.
    constexpr unsigned positions = 32;
    auto home = [](Pid pid, std::uint64_t vpn) {
        std::uint64_t key = vpn ^ (static_cast<std::uint64_t>(pid) << 48);
        return (key * 0x9e3779b97f4a7c15ull) >> (64 - floorLog2(positions));
    };
    std::vector<Key> keys;
    for (std::uint64_t vpn = 0; keys.size() < 24; ++vpn) {
        std::uint64_t h = home(2, vpn);
        if (h >= positions - 2 || h == 0)
            keys.push_back({2, vpn});
    }
    for (bool lru : {false, true}) {
        SCOPED_TRACE(lru ? "lru" : "random");
        runDifferential(TlbParams{8, 0, lru, 5}, keys, 20000, 77, 1);
    }
}

} // namespace
} // namespace rampage
