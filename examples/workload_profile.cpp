/**
 * @file
 * Workload characterisation tool: run each Table 2 program *alone*
 * through the baseline hierarchy and report its miss behaviour —
 * useful both for validating the synthetic traces against the paper's
 * locality assumptions and for tuning substitutes (see DESIGN.md).
 *
 * Usage: workload_profile [refs-per-program] [block-bytes]
 */

#include <cstdio>
#include <memory>

#include "core/conventional.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "stats/table.hh"
#include "trace/benchmarks.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

static int
runTool(int argc, char **argv)
{
    std::uint64_t refs =
        argc > 1 ? parsePositive("refs", argv[1]) : 2'000'000;
    std::uint64_t block = argc > 2 ? parseByteSize(argv[2]) : 128;

    std::printf("per-program behaviour, baseline hierarchy, %s L2 "
                "blocks, %llu refs each\n\n",
                formatByteSize(block).c_str(),
                static_cast<unsigned long long>(refs));

    TextTable table;
    table.setHeader({"program", "tlbMiss%", "l1i%", "l1d%", "l2miss%",
                     "ovh%", "dram%"});

    for (const ProgramProfile &profile : benchmarkRoster()) {
        ConventionalHierarchy hier(
            baselineConfig(1'000'000'000ull, block));
        std::vector<std::unique_ptr<TraceSource>> workload;
        workload.push_back(
            std::make_unique<SyntheticProgram>(profile, 0));
        SimConfig sim = armedSimConfig(refs, refs); // no multiprogramming
        sim.insertSwitchTrace = false;
        Simulator simulator(hier, std::move(workload), sim);
        SimResult result = simulator.run();

        const EventCounts &c = result.counts;
        TimeBreakdown bd = priceEvents(c, 1'000'000'000ull);
        table.addRow({
            profile.name,
            cellf("%.3f", 100.0 * c.tlbMisses / c.traceRefs),
            cellf("%.2f", 100.0 * c.l1iMisses /
                              std::max<std::uint64_t>(c.instrFetches, 1)),
            cellf("%.2f", 100.0 * c.l1dMisses / c.traceRefs),
            cellf("%.3f", 100.0 * c.l2Misses / c.traceRefs),
            cellf("%.1f", 100.0 * c.overheadRatio()),
            cellf("%.1f", 100.0 * bd.fraction(TimeLevel::Dram)),
        });
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
