/**
 * @file
 * Scenario: the paper's §6.2 "dynamic tuning" argument — because
 * RAMpage manages the SRAM in software, the page size could be chosen
 * per program at run time (a cache's line size is frozen in
 * hardware).  This example runs each Table 2 program *alone* through
 * RAMpage at every page size and reports each program's best size,
 * demonstrating the headroom a variable page size would unlock.
 *
 * Usage: pagesize_explorer [refs-per-program]
 */

#include <cstdio>
#include <memory>

#include "core/cost_model.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
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
    constexpr std::uint64_t rate = 4'000'000'000ull;

    std::printf("Per-program best RAMpage page size (4GHz, %llu refs "
                "each)\n\n",
                static_cast<unsigned long long>(refs));

    TextTable table;
    std::vector<std::string> header = {"program"};
    for (std::uint64_t size : blockSizeSweep())
        header.push_back(formatByteSize(size));
    header.push_back("best");
    header.push_back("vs 1KB fixed");
    table.setHeader(header);

    double worst_penalty = 0;
    for (const ProgramProfile &profile : benchmarkRoster()) {
        std::vector<std::string> row = {profile.name};
        Tick best = ~Tick{0}, at_1k = 0;
        std::string best_label;
        for (std::uint64_t size : blockSizeSweep()) {
            auto hier = makeHierarchy(rampageConfig(rate, size));
            std::vector<std::unique_ptr<TraceSource>> workload;
            workload.push_back(
                std::make_unique<SyntheticProgram>(profile, 0));
            SimConfig sim = armedSimConfig(refs, refs);
            sim.insertSwitchTrace = false;
            Simulator driver(*hier, std::move(workload), sim);
            SimResult result = driver.run();
            row.push_back(formatSeconds(result.elapsedPs));
            if (result.elapsedPs < best) {
                best = result.elapsedPs;
                best_label = formatByteSize(size);
            }
            if (size == 1024)
                at_1k = result.elapsedPs;
        }
        double penalty = 100.0 *
                         (static_cast<double>(at_1k) -
                          static_cast<double>(best)) /
                         static_cast<double>(best);
        worst_penalty = std::max(worst_penalty, penalty);
        row.push_back(best_label);
        row.push_back(cellf("+%.1f%%", penalty));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("'vs 1KB fixed' is what each program loses when the "
                "whole system is pinned to the global best page size; "
                "worst case here: +%.1f%%.  A hardware cache cannot "
                "re-tune this; RAMpage can (paper Sec 6.2).\n",
                worst_penalty);
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
