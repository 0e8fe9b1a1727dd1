/**
 * @file
 * Scenario: a system architect deciding where to spend complexity —
 * hardware (L2 tags and associativity on chip) or software (RAMpage).
 * Compares the three designs across the CPU-DRAM gap and reports the
 * best configuration of each plus the crossover rate where RAMpage
 * overtakes the conventional designs (the paper's headline question).
 *
 * Usage: hierarchy_compare [refs]
 */

#include <algorithm>
#include <cstdio>

#include "core/cost_model.hh"
#include "core/sweep.hh"
#include "stats/table.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

namespace
{

std::vector<std::string>
sizeLabels()
{
    std::vector<std::string> labels;
    for (std::uint64_t size : blockSizeSweep())
        labels.push_back(formatByteSize(size));
    return labels;
}

} // namespace

static int
runTool(int argc, char **argv)
{
    SimConfig sim = defaultSimConfig();
    if (argc > 1)
        sim = armedSimConfig(parsePositive("refs", argv[1]),
                             sim.quantumRefs);

    std::printf("Where should memory-system complexity live?\n");
    std::printf("Comparing DM L2 / 2-way L2 / RAMpage, %llu refs/run\n\n",
                static_cast<unsigned long long>(sim.maxRefs));

    // One behavioural sweep per system; re-price across issue rates.
    struct Family
    {
        const char *name;
        std::vector<SimResult> runs;
    };
    std::vector<Family> families;
    for (const char *name : {"baseline", "2-way", "RAMpage"}) {
        Family family{name, {}};
        for (std::uint64_t size : blockSizeSweep()) {
            if (std::string(name) == "baseline")
                family.runs.push_back(simulateSystem(
                    baselineConfig(1'000'000'000ull, size), sim));
            else if (std::string(name) == "2-way")
                family.runs.push_back(simulateSystem(
                    twoWayConfig(1'000'000'000ull, size), sim));
            else
                family.runs.push_back(simulateSystem(
                    rampageConfig(1'000'000'000ull, size), sim));
            std::fprintf(stderr, "  [%s %s done]\n", name,
                         formatByteSize(size).c_str());
        }
        families.push_back(std::move(family));
    }

    TextTable table;
    table.setHeader({"issue rate", "baseline best", "2-way best",
                     "RAMpage best", "winner"});
    for (std::uint64_t rate : issueRates()) {
        std::vector<std::string> row = {formatFrequency(rate)};
        Tick best_overall = ~Tick{0};
        std::string winner;
        for (const Family &family : families) {
            Tick best = ~Tick{0};
            std::string best_size;
            auto labels = sizeLabels();
            for (std::size_t i = 0; i < family.runs.size(); ++i) {
                Tick t = totalTimePs(family.runs[i].counts, rate);
                if (t < best) {
                    best = t;
                    best_size = labels[i];
                }
            }
            row.push_back(formatSeconds(best) + " @" + best_size);
            if (best < best_overall) {
                best_overall = best;
                winner = family.name;
            }
        }
        row.push_back(winner);
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("The paper's claim: as the CPU-DRAM speed gap grows, "
                "trading hardware complexity for software complexity "
                "(RAMpage) stops costing performance and starts "
                "winning.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
