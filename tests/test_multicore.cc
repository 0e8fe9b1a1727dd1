/**
 * @file
 * Multicore driver proofs.
 *
 * The core/memory seam (CoreFrontend over a shared MemoryBackend)
 * must not perturb the single-core model; SnapshotPin in
 * tests/test_simulator.cc pins one- and four-core runs bit for bit.
 * Multicore runs must be deterministic — same stats snapshot run to
 * run and at any SweepRunner parallelism — and pass paranoid audits.
 * Finally the coherence-lite residency invariant must be a real
 * checker: dropping a core's residency bit under a live TLB
 * translation (the stale-private-copy fault) has to trip the
 * coherence.residency audit.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/core_frontend.hh"
#include "core/factory.hh"
#include "core/fault_injection.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/benchmarks.hh"
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
    EXPECT_EQ(a.stats.toJson().dump(), b.stats.toJson().dump());
}

// ---------------------------------------------------- multicore runs

SimResult
runCores(const HierarchyConfig &cfg, unsigned cores, AuditLevel level)
{
    SimConfig sim;
    sim.maxRefs = 60'000;
    sim.quantumRefs = 7'000;
    sim.cores = cores;
    sim.auditLevel = level;
    return simulateSystem(cfg, sim);
}

TEST(Multicore, FourCoreRunsAreDeterministic)
{
    for (const HierarchyConfig &cfg :
         {HierarchyConfig(baselineConfig(oneGhz, 128)),
          HierarchyConfig(rampageConfig(oneGhz, 1024)),
          HierarchyConfig(rampageConfig(oneGhz, 1024, true))}) {
        SimResult a = runCores(cfg, 4, AuditLevel::Off);
        SimResult b = runCores(cfg, 4, AuditLevel::Off);
        expectIdentical(a, b);
    }
}

TEST(Multicore, FourCoreRunsPassParanoidAudits)
{
    EXPECT_NO_THROW(
        runCores(baselineConfig(oneGhz, 128), 4, AuditLevel::Paranoid));
    EXPECT_NO_THROW(
        runCores(rampageConfig(oneGhz, 1024), 4, AuditLevel::Paranoid));
    EXPECT_NO_THROW(runCores(rampageConfig(oneGhz, 1024, true), 4,
                             AuditLevel::Paranoid));
}

std::string
dumpWithoutAuditCounters(const StatsSnapshot &stats)
{
    // audit.runs/audit.checks exist only when the auditor is enabled
    // (test_audit.cc's byte-identity test makes the same exclusion);
    // every simulated quantity must still match bit for bit.
    StatsSnapshot out;
    for (const StatsSnapshot::Entry &entry : stats.entries())
        if (entry.name.rfind("audit.", 0) != 0)
            out.addEntry(entry);
    return out.toJson().dump();
}

TEST(Multicore, AuditsAreSideEffectFree)
{
    RampageConfig cfg = rampageConfig(oneGhz, 1024, true);
    SimResult off = runCores(cfg, 4, AuditLevel::Off);
    SimResult paranoid = runCores(cfg, 4, AuditLevel::Paranoid);
    EXPECT_EQ(off.elapsedPs, paranoid.elapsedPs);
    EXPECT_EQ(off.stallPs, paranoid.stallPs);
    EXPECT_EQ(off.systemName, paranoid.systemName);
    EXPECT_EQ(dumpWithoutAuditCounters(off.stats),
              dumpWithoutAuditCounters(paranoid.stats));
}

bool
hasStat(const StatsSnapshot &stats, const std::string &name)
{
    for (const StatsSnapshot::Entry &entry : stats.entries())
        if (entry.name == name)
            return true;
    return false;
}

TEST(Multicore, StatsUsePerCorePrefixes)
{
    SimResult quad = runCores(rampageConfig(oneGhz, 1024), 4,
                              AuditLevel::Off);
    EXPECT_TRUE(hasStat(quad.stats, "core0.l1d.misses"));
    EXPECT_TRUE(hasStat(quad.stats, "core3.tlb.misses"));
    EXPECT_FALSE(hasStat(quad.stats, "l1d.misses"));

    SimResult single = runCores(rampageConfig(oneGhz, 1024), 1,
                                AuditLevel::Off);
    EXPECT_TRUE(hasStat(single.stats, "l1d.misses"));
    EXPECT_FALSE(hasStat(single.stats, "core0.l1d.misses"));
}

TEST(Multicore, SnapshotStableAtAnySweepParallelism)
{
    // The same four-point cores=4 campaign at --jobs 1 and --jobs 4:
    // every point's stats snapshot must be byte-identical, proving
    // multicore runs share no hidden cross-thread state.
    auto campaign = [](unsigned jobs) {
        SweepRunner::Options opts;
        opts.jobs = jobs;
        SweepRunner runner(opts);
        for (std::uint64_t page : {512u, 1024u, 2048u, 4096u})
            runner.add("rampage/" + std::to_string(page), [page] {
                return runCores(rampageConfig(oneGhz, page), 4,
                                AuditLevel::Off);
            });
        return runner.run();
    };
    SweepReport serial = campaign(1);
    SweepReport parallel = campaign(4);
    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    ASSERT_TRUE(serial.allOk());
    ASSERT_TRUE(parallel.allOk());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        const PointOutcome &a = serial.outcomes[i];
        const PointOutcome &b = parallel.outcomes[i];
        EXPECT_EQ(a.id, b.id);
        ASSERT_TRUE(a.haveResult);
        ASSERT_TRUE(b.haveResult);
        expectIdentical(a.result, b.result);
    }
}

TEST(Multicore, MoreSourcesThanCoresIsRequired)
{
    // The Table 2 workload has 19 programs; a 20-core hierarchy has
    // nothing to schedule on the last core.
    CommonConfig common = defaultCommon(oneGhz);
    EXPECT_GT(makeWorkload().size(), 0u);
    ConventionalConfig cfg = baselineConfig(oneGhz, 128);
    cfg.common.cores = 20;
    SimConfig sim;
    sim.maxRefs = 1'000;
    sim.quantumRefs = 500;
    EXPECT_THROW(simulateSystem(cfg, sim), ConfigError);
    (void)common;
}

TEST(Multicore, CoreCountIsValidated)
{
    ConventionalConfig cfg = baselineConfig(oneGhz, 128);
    cfg.common.cores = 0;
    EXPECT_THROW(validateHierarchyConfig(cfg), ConfigError);
    cfg.common.cores = maxCores + 1;
    EXPECT_THROW(validateHierarchyConfig(cfg), ConfigError);
}

// ------------------------------------------- coherence-lite residency

// Page replacement finds every core's private copies through the
// residency masks, with one core as with many, so both residency
// tests run at one and at four cores.

TEST(Multicore, StalePrivateCopyFaultTripsTheResidencyAudit)
{
    // Warm a RAMpage hierarchy so every core holds live translations,
    // then drop one core's residency bit out from under its TLB — the
    // corruption page replacement would turn into a stale private
    // copy.  The coherence.residency checker must fire.
    for (unsigned cores : {1u, 4u}) {
        SCOPED_TRACE("cores = " + std::to_string(cores));
        HierarchyConfig cfg(rampageConfig(oneGhz, 1024));
        cfg.common().cores = cores;
        auto hier = makeHierarchy(cfg);
        SimConfig sim;
        sim.maxRefs = 40'000;
        sim.quantumRefs = 5'000;
        Simulator(*hier, makeWorkload(), sim).run();

        // Positive control: the warmed hierarchy audits clean.
        Auditor control(AuditLevel::Boundaries);
        EXPECT_NO_THROW(control.auditHierarchy(*hier, "control"));

        FaultInjector injector(parseFaultPlan("stale-private-copy"));
        ASSERT_TRUE(injector.apply(*hier))
            << "warm run left no resident translation to corrupt";

        Auditor auditor(AuditLevel::Boundaries);
        try {
            auditor.auditHierarchy(*hier, "stale private copy");
            FAIL() << "a dropped residency bit passed the audit";
        } catch (const AuditError &err) {
            EXPECT_EQ(err.firstInvariant(), "coherence.residency");
        }
    }
}

TEST(Multicore, InjectedRunIsRejectedEndToEnd)
{
    // The same fault through the simulator's injection seam: the run
    // itself must abort with the residency violation.
    for (unsigned cores : {1u, 4u}) {
        SCOPED_TRACE("cores = " + std::to_string(cores));
        HierarchyConfig cfg(rampageConfig(oneGhz, 1024));
        SimConfig sim;
        sim.maxRefs = 40'000;
        sim.quantumRefs = 5'000;
        sim.cores = cores;
        sim.auditLevel = AuditLevel::Boundaries;
        sim.faultPlan = "stale-private-copy";
        try {
            simulateSystem(cfg, sim);
            FAIL() << "injected run finished clean";
        } catch (const AuditError &err) {
            EXPECT_EQ(err.firstInvariant(), "coherence.residency");
        }
    }
}

} // namespace
} // namespace rampage
