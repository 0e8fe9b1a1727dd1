/**
 * @file
 * Tests for the synthetic trace generator and the Table 2 roster.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <vector>

#include "trace/benchmarks.hh"
#include "trace/synthetic.hh"

namespace rampage
{
namespace
{

ProgramProfile
testProfile()
{
    ProgramProfile p;
    p.name = "test";
    p.seed = 1234;
    p.dataPerInstr = 0.30;
    return p;
}

TEST(Synthetic, DeterministicForSameSeed)
{
    SyntheticProgram a(testProfile(), 0), b(testProfile(), 0);
    MemRef ra, rb;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.vaddr, rb.vaddr);
        ASSERT_EQ(ra.kind, rb.kind);
    }
}

TEST(Synthetic, ResetReproducesStream)
{
    SyntheticProgram prog(testProfile(), 0);
    std::vector<MemRef> first;
    MemRef ref;
    for (int i = 0; i < 5000; ++i) {
        prog.next(ref);
        first.push_back(ref);
    }
    prog.reset();
    for (int i = 0; i < 5000; ++i) {
        prog.next(ref);
        ASSERT_EQ(ref.vaddr, first[i].vaddr);
        ASSERT_EQ(ref.kind, first[i].kind);
    }
}

TEST(Synthetic, PidStampedOnEveryRef)
{
    SyntheticProgram prog(testProfile(), 7);
    MemRef ref;
    for (int i = 0; i < 1000; ++i) {
        prog.next(ref);
        ASSERT_EQ(ref.pid, 7);
    }
    EXPECT_EQ(prog.pid(), 7);
}

TEST(Synthetic, ReferenceMixMatchesProfile)
{
    ProgramProfile p = testProfile();
    p.dataPerInstr = 0.25;
    p.storeFraction = 0.4;
    SyntheticProgram prog(p, 0);
    std::map<RefKind, int> counts;
    MemRef ref;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        prog.next(ref);
        ++counts[ref.kind];
    }
    double data = counts[RefKind::Load] + counts[RefKind::Store];
    double instr = counts[RefKind::IFetch];
    EXPECT_NEAR(data / instr, 0.25, 0.01);
    EXPECT_NEAR(counts[RefKind::Store] / data, 0.4, 0.02);
}

TEST(Synthetic, AddressesStayInRegions)
{
    ProgramProfile p = testProfile();
    SyntheticProgram prog(p, 0);
    MemRef ref;
    for (int i = 0; i < 100000; ++i) {
        prog.next(ref);
        if (ref.isInstr()) {
            ASSERT_GE(ref.vaddr, SyntheticProgram::codeBase);
            ASSERT_LT(ref.vaddr,
                      SyntheticProgram::codeBase + p.codeBytes);
            ASSERT_EQ(ref.vaddr % 4, 0u) << "unaligned fetch";
        } else {
            bool in_stack =
                ref.vaddr <= SyntheticProgram::stackTop &&
                ref.vaddr > SyntheticProgram::stackTop - p.stackBytes;
            bool in_globals =
                ref.vaddr >= SyntheticProgram::globalBase &&
                ref.vaddr < SyntheticProgram::globalBase + p.globalBytes;
            bool in_heap =
                ref.vaddr >= SyntheticProgram::heapBase &&
                ref.vaddr < SyntheticProgram::heapBase + p.heapBytes;
            ASSERT_TRUE(in_stack || in_globals || in_heap)
                << std::hex << ref.vaddr;
        }
    }
}

TEST(Synthetic, EndlessStream)
{
    SyntheticProgram prog(testProfile(), 0);
    MemRef ref;
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(prog.next(ref));
    EXPECT_EQ(prog.generated(), 1000u);
}

TEST(Roster, HasEighteenPrograms)
{
    // Table 2 lists 18 traces.
    EXPECT_EQ(benchmarkRoster().size(), 18u);
}

TEST(Roster, TotalsMatchPaperTable2)
{
    // The combined workload is ~1.1 G references (§4.2).
    double total = 0;
    for (const auto &profile : benchmarkRoster())
        total += profile.totalMillions;
    EXPECT_NEAR(total, 1100.0, 25.0);
}

TEST(Roster, MixDerivedFromTable2Counts)
{
    for (const auto &profile : benchmarkRoster()) {
        EXPECT_NEAR(profile.dataPerInstr,
                    profile.totalMillions / profile.instrMillions - 1.0,
                    1e-9)
            << profile.name;
        EXPECT_GT(profile.dataPerInstr, 0.0) << profile.name;
        EXPECT_LT(profile.dataPerInstr, 0.6) << profile.name;
    }
}

TEST(Roster, LookupByName)
{
    const auto &gcc = benchmarkProfile("gcc");
    EXPECT_EQ(gcc.name, "gcc");
    EXPECT_NEAR(gcc.instrMillions, 78.8, 1e-9);
    EXPECT_NEAR(gcc.totalMillions, 100.0, 1e-9);
}

TEST(Roster, DistinctSeedsAndPids)
{
    auto workload = makeWorkload();
    ASSERT_EQ(workload.size(), 18u);
    for (std::size_t i = 0; i < workload.size(); ++i)
        EXPECT_EQ(workload[i]->pid(), static_cast<Pid>(i));
    // Streams differ between programs.
    MemRef a, b;
    workload[0]->next(a);
    workload[1]->next(b);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        workload[0]->next(a);
        workload[1]->next(b);
        if (a.vaddr == b.vaddr)
            ++same;
    }
    EXPECT_LT(same, 50);
}

TEST(Roster, SaltDecorrelatesWorkloads)
{
    auto base = makeWorkload(0);
    auto salted = makeWorkload(1);
    MemRef a, b;
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        base[0]->next(a);
        salted[0]->next(b);
        if (a.vaddr == b.vaddr)
            ++same;
    }
    EXPECT_LT(same, 150);
}

// ------------------------------------------------ pinned stream hashes

/** References hashed per roster program by StreamPin. */
constexpr std::size_t pinRefs = 1'000'000;

/**
 * FNV-1a (64-bit) over each reference's vaddr (8 bytes), kind
 * (1 byte) and pid (2 bytes), little-endian, field by field — so the
 * hash is independent of MemRef's padding.
 */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    ref(const MemRef &r)
    {
        bytes(r.vaddr, 8);
        bytes(static_cast<std::uint64_t>(r.kind), 1);
        bytes(r.pid, 2);
    }
};

/**
 * Stream hashes of the first pinRefs references of every roster
 * program, in roster order, for makeWorkload() salts 0 and 97.  They
 * were captured from the generator before its draws were rewritten
 * as integer thresholds; any change to a single generated reference
 * changes them.  Regenerate only for a deliberate change to the
 * modelled workload.
 */
const std::uint64_t pinnedSalt0[18] = {
    0xcef7e6763a1c16ffull, 0x8c1e842ddc5ba7b1ull, 0xdce98fe7fda32b8dull,
    0x4d62583f63bfd471ull, 0x50d87d470492248bull, 0x25a1ebfec611f4acull,
    0x2da78f8358db8109ull, 0xf6575152eaf5440full, 0xb8fe2cd07761ab78ull,
    0x7e688d11d1aa14f9ull, 0x1d5fb9fe5b82ac69ull, 0x08228d5b20fa7f70ull,
    0xda7bf2f2e6a6bc0bull, 0x944d2e1a32a8fd45ull, 0x27a3b5feb200e577ull,
    0x1e806d9609e331b3ull, 0x451a2a627ea05ec9ull, 0xcf21aa6ef0af81a4ull,
};
const std::uint64_t pinnedSalt97[18] = {
    0x96cc9adb37f076dcull, 0x9edd05b01abfae14ull, 0x6a2e844a294aa700ull,
    0xdf7de4b497a29df0ull, 0xa7e1b696b0b3c36full, 0xb523aca99174a485ull,
    0xafdc3ee4ebfaf60aull, 0x85f25cd32d0589e2ull, 0xac8eddb9643882c2ull,
    0x29cc9dde7b911cf7ull, 0xefbd83792c99212full, 0x84fa50250e8a9722ull,
    0xa13ee3c0fb0e0ea2ull, 0x2fc8a18a3bed0f80ull, 0x98526f1dc6f6f9c6ull,
    0xa5318f5b766b3ea0ull, 0x19410be95787de0dull, 0x01106aaa32e36c39ull,
};

class StreamPin
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::size_t>>
{
};

TEST_P(StreamPin, MatchesCapturedHashes)
{
    const auto [salt, chunk] = GetParam();
    const std::uint64_t *pinned = salt == 0 ? pinnedSalt0 : pinnedSalt97;
    auto workload = makeWorkload(salt);
    ASSERT_EQ(workload.size(), 18u);
    std::vector<MemRef> buf(chunk);
    for (std::size_t prog = 0; prog < workload.size(); ++prog) {
        Fnv1a fnv;
        for (std::size_t done = 0; done < pinRefs;) {
            std::size_t want = std::min(chunk, pinRefs - done);
            ASSERT_EQ(workload[prog]->fill(buf.data(), want), want);
            for (std::size_t i = 0; i < want; ++i)
                fnv.ref(buf[i]);
            done += want;
        }
        char got[24];
        std::snprintf(got, sizeof got, "0x%016llx",
                      static_cast<unsigned long long>(fnv.h));
        EXPECT_EQ(fnv.h, pinned[prog])
            << workload[prog]->name() << " (salt " << salt
            << ", chunk " << chunk << ") hashed " << got;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SaltsAndChunks, StreamPin,
    ::testing::Combine(::testing::Values(std::uint64_t{0},
                                         std::uint64_t{97}),
                       ::testing::Values(std::size_t{1},
                                         std::size_t{4096})));

} // namespace
} // namespace rampage
