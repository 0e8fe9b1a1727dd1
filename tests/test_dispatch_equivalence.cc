/**
 * @file
 * Equivalence proofs for the hot-path shortcuts.
 *
 * The one-entry last-translation cache must never change a single
 * counter, and TraceSource::fill() must reproduce exactly the
 * reference sequence repeated next() calls produce, for every trace
 * family.  Finally, the cache's audit invariant (tlb.trans_cache)
 * must actually fire on a stale cache, proven via fault injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/factory.hh"
#include "core/fault_injection.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/benchmarks.hh"
#include "trace/file_format.hh"
#include "trace/synthetic.hh"
#include "util/error.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.elapsedPs, b.elapsedPs);
    EXPECT_EQ(a.stallPs, b.stallPs);
    EXPECT_EQ(a.systemName, b.systemName);
    // The full statistics snapshot — every counter, every formula,
    // registered under the same names in the same order.
    EXPECT_EQ(a.stats.toJson().dump(), b.stats.toJson().dump());
}

// ------------------------------------------------- translation cache

SimResult
runWithCache(const HierarchyConfig &cfg, bool cache_on,
             bool switch_on_miss = false)
{
    auto hier = makeHierarchy(cfg);
    hier->setTranslationCacheEnabled(cache_on);
    SimConfig sim;
    sim.maxRefs = 60'000;
    sim.quantumRefs = 7'000;
    sim.switchOnMiss = switch_on_miss;
    Simulator driver(*hier, makeWorkload(), sim);
    return driver.run();
}

TEST(TranslationCache, RampageRunsBitIdenticalWithCacheOff)
{
    expectIdentical(runWithCache(rampageConfig(oneGhz, 1024), true),
                    runWithCache(rampageConfig(oneGhz, 1024), false));
}

TEST(TranslationCache, SwitchOnMissRunsBitIdenticalWithCacheOff)
{
    RampageConfig cfg = rampageConfig(oneGhz, 1024, true);
    expectIdentical(runWithCache(cfg, true, true),
                    runWithCache(cfg, false, true));
}

TEST(TranslationCache, ConventionalRunsBitIdenticalWithCacheOff)
{
    ConventionalConfig cfg = baselineConfig(oneGhz, 128);
    expectIdentical(runWithCache(cfg, true),
                    runWithCache(cfg, false));
}

TEST(TranslationCache, ParanoidAuditedRunStaysClean)
{
    // Paranoid audits check the tlb.trans_cache invariant after every
    // miss that reached the L2/SRAM level — across page replacements,
    // context switches and TLB refills.  A missed invalidation seam
    // anywhere in the hierarchy would throw AuditError here.
    SimConfig sim;
    sim.maxRefs = 40'000;
    sim.quantumRefs = 5'000;
    sim.auditLevel = AuditLevel::Paranoid;
    EXPECT_NO_THROW(simulateSystem(rampageConfig(oneGhz, 1024), sim));
    EXPECT_NO_THROW(
        simulateSystem(rampageConfig(oneGhz, 1024, true), sim));
}

TEST(TranslationCache, StaleCacheIsCaughtByTheAudit)
{
    auto hier = makeHierarchy(rampageConfig(oneGhz, 1024));
    SimConfig sim;
    sim.maxRefs = 40'000;
    sim.quantumRefs = 5'000;
    Simulator(*hier, makeWorkload(), sim).run();

    // Positive control: the warmed hierarchy audits clean.
    Auditor control(AuditLevel::Boundaries);
    EXPECT_NO_THROW(control.auditHierarchy(*hier, "control"));

    // Inject the desynchronization bug: a live cache entry's frame
    // is skewed away from its backing TLB slot (mutating the TLB
    // itself would advance its generation and retire the cache).
    FaultInjector injector(parseFaultPlan("trans-cache-stale"));
    ASSERT_TRUE(injector.apply(*hier))
        << "warm run left no cached translation to corrupt";

    Auditor auditor(AuditLevel::Boundaries);
    try {
        auditor.auditHierarchy(*hier, "stale translation cache");
        FAIL() << "stale translation cache passed the audit";
    } catch (const AuditError &err) {
        EXPECT_EQ(err.firstInvariant(), "tlb.trans_cache");
    }
}

// ------------------------------------------------ TraceSource::fill

/** Collect `n` refs via repeated next(); the reference sequence. */
std::vector<MemRef>
byNext(TraceSource &src, std::size_t n)
{
    std::vector<MemRef> refs;
    MemRef ref;
    while (refs.size() < n && src.next(ref))
        refs.push_back(ref);
    return refs;
}

/** Collect up to `n` refs via fill() in `chunk`-sized requests. */
std::vector<MemRef>
byFill(TraceSource &src, std::size_t n, std::size_t chunk)
{
    std::vector<MemRef> refs;
    std::vector<MemRef> buf(chunk);
    while (refs.size() < n) {
        std::size_t want = std::min(chunk, n - refs.size());
        std::size_t got = src.fill(buf.data(), want);
        refs.insert(refs.end(), buf.begin(), buf.begin() + got);
        if (got < want)
            break; // end of stream
    }
    return refs;
}

void
expectSameRefs(const std::vector<MemRef> &a,
               const std::vector<MemRef> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].vaddr, b[i].vaddr) << "ref " << i;
        ASSERT_EQ(a[i].kind, b[i].kind) << "ref " << i;
        ASSERT_EQ(a[i].pid, b[i].pid) << "ref " << i;
    }
}

const std::size_t fillChunks[] = {1, 2, 3, 7, 64, 1000};

TEST(TraceFill, SyntheticMatchesNext)
{
    ProgramProfile profile;
    profile.name = "fill-test";
    profile.seed = 42;
    for (std::size_t chunk : fillChunks) {
        SyntheticProgram via_next(profile, 3);
        SyntheticProgram via_fill(profile, 3);
        expectSameRefs(byNext(via_next, 5000),
                       byFill(via_fill, 5000, chunk));
    }
}

TEST(TraceFill, FileSourceMatchesNextAndStopsAtEof)
{
    for (bool din : {false, true}) {
        std::string path = std::string(::testing::TempDir()) +
                           "/rampage_fill_" + (din ? "din" : "native") +
                           ".trace";
        {
            TraceWriter writer(path, din);
            ProgramProfile profile;
            profile.name = "file-fill";
            profile.seed = 7;
            SyntheticProgram gen(profile, 5);
            MemRef ref;
            for (int i = 0; i < 1000; ++i) {
                gen.next(ref);
                writer.write(ref);
            }
        }
        for (std::size_t chunk : fillChunks) {
            FileTraceSource via_next(path, 5);
            FileTraceSource via_fill(path, 5);
            // Ask for more than the file holds: both paths must stop
            // short at EOF with the identical partial sequence.
            std::vector<MemRef> a = byNext(via_next, 1500);
            std::vector<MemRef> b = byFill(via_fill, 1500, chunk);
            EXPECT_EQ(a.size(), 1000u);
            expectSameRefs(a, b);
        }
        std::remove(path.c_str());
    }
}

/** A finite source with no fill() override (the default path). */
class FiniteSource : public TraceSource
{
  public:
    explicit FiniteSource(std::uint64_t count) : total(count) {}

    bool
    next(MemRef &ref) override
    {
        if (emitted >= total)
            return false;
        ref.vaddr = emitted * 64;
        ref.kind = emitted % 3 ? RefKind::Load : RefKind::IFetch;
        ref.pid = 1;
        ++emitted;
        return true;
    }

    void reset() override { emitted = 0; }
    std::string name() const override { return "finite"; }
    Pid pid() const override { return 1; }

  private:
    std::uint64_t total;
    std::uint64_t emitted = 0;
};

TEST(TraceFill, DefaultImplementationMatchesNext)
{
    for (std::size_t chunk : fillChunks) {
        FiniteSource via_next(500);
        FiniteSource via_fill(500);
        std::vector<MemRef> a = byNext(via_next, 800);
        std::vector<MemRef> b = byFill(via_fill, 800, chunk);
        EXPECT_EQ(a.size(), 500u);
        expectSameRefs(a, b);
    }
}

} // namespace
} // namespace rampage
