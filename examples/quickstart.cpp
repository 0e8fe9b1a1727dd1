/**
 * @file
 * Quickstart: build the paper's three systems at one issue rate and
 * one block/page size, run the Table 2 workload through each, and
 * print run time, per-level time fractions and the headline memory
 * statistics.
 *
 * Usage: quickstart [issue-rate] [block-bytes] [refs]
 *   e.g. quickstart 1GHz 1KB 4000000
 *
 * Set RAMPAGE_STATS=1 to also dump every system's full named-stats
 * snapshot (the same registry the benches serialize with --json).
 */

#include <cstdio>
#include <cstdlib>

#include "core/sweep.hh"
#include "stats/table.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

static int
runTool(int argc, char **argv)
{
    std::uint64_t issue_hz =
        argc > 1 ? parseFrequency(argv[1]) : 1'000'000'000ull;
    std::uint64_t block = argc > 2 ? parseByteSize(argv[2]) : 1024;
    SimConfig sim = defaultSimConfig();
    if (argc > 3)
        sim = armedSimConfig(parsePositive("refs", argv[3]),
                             sim.quantumRefs);

    std::printf("RAMpage quickstart: issue rate %s, block/page %s, "
                "%llu refs, quantum %llu\n\n",
                formatFrequency(issue_hz).c_str(),
                formatByteSize(block).c_str(),
                static_cast<unsigned long long>(sim.maxRefs),
                static_cast<unsigned long long>(sim.quantumRefs));

    TextTable table;
    table.setHeader({"system", "time(s)", "L1i%", "L1d%", "L2/MM%",
                     "DRAM%", "TLBmiss", "L2miss/flt", "ovh%"});

    bool dump_stats = std::getenv("RAMPAGE_STATS") != nullptr;

    auto report = [&](const SimResult &result) {
        if (dump_stats)
            std::printf("---- %s stats ----\n%s\n",
                        result.systemName.c_str(),
                        result.stats.toText().c_str());
        TimeBreakdown bd = priceEvents(result.counts, issue_hz,
                                       result.stallPs);
        const EventCounts &c = result.counts;
        table.addRow({
            result.systemName,
            cellf("%.4f", result.seconds()),
            cellf("%.1f", 100 * bd.fraction(TimeLevel::L1I)),
            cellf("%.1f", 100 * bd.fraction(TimeLevel::L1D)),
            cellf("%.1f", 100 * bd.fraction(TimeLevel::L2)),
            cellf("%.1f", 100 * bd.fraction(TimeLevel::Dram)),
            cellf("%llu", static_cast<unsigned long long>(c.tlbMisses)),
            cellf("%llu", static_cast<unsigned long long>(c.l2Misses)),
            cellf("%.1f", 100 * c.overheadRatio()),
        });
    };

    report(simulateSystem(baselineConfig(issue_hz, block), sim));
    report(simulateSystem(twoWayConfig(issue_hz, block), sim));
    report(simulateSystem(rampageConfig(issue_hz, block), sim));
    report(simulateSystem(rampageConfig(issue_hz, block, true), sim));

    std::printf("%s\n", table.render().c_str());
    std::printf("ovh%% = TLB-miss + page-fault handler references as a\n"
                "percentage of benchmark references (the paper's Fig 4).\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
