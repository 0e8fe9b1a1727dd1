/**
 * @file
 * Scenario: when is it worth taking a context switch on a miss?
 * (paper §4.6, §5.4).  A page transfer from Direct Rambus costs a
 * fixed number of nanoseconds; the ~400-reference switch costs
 * cycles.  As the issue rate grows, the transfer is worth ever more
 * instructions and switching wins.  This example sweeps the issue
 * rate at a fixed page size and prints the break-even analysis next
 * to the measured outcome.
 *
 * Usage: ctx_switch_demo [page-size] [refs]
 */

#include <cstdio>

#include "core/sweep.hh"
#include "dram/rambus.hh"
#include "stats/table.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

static int
runTool(int argc, char **argv)
{
    std::uint64_t page = argc > 1 ? parseByteSize(argv[1]) : 4096;
    SimConfig sim = defaultSimConfig(true);
    if (argc > 2) {
        sim = armedSimConfig(parsePositive("refs", argv[2]),
                             sim.quantumRefs);
        sim.switchOnMiss = true;
    }

    DirectRambus rambus;
    Tick transfer = rambus.readPs(page);

    std::printf("Context switch on miss: %s pages, one transfer = "
                "%llu ns, switch trace = ~400 refs\n\n",
                formatByteSize(page).c_str(),
                static_cast<unsigned long long>(transfer / psPerNs));

    TextTable table;
    table.setHeader({"issue rate", "transfer (instr)", "blocking(s)",
                     "switching(s)", "gain", "stall(s)"});

    for (std::uint64_t rate : issueRates()) {
        SimResult blocking = simulateSystem(
            rampageConfig(rate, page, false), sim);
        SimResult switching = simulateSystem(
            rampageConfig(rate, page, true), sim);
        std::fprintf(stderr, "  [%s done]\n",
                     formatFrequency(rate).c_str());
        double gain = 100.0 *
                      (static_cast<double>(blocking.elapsedPs) -
                       static_cast<double>(switching.elapsedPs)) /
                      static_cast<double>(blocking.elapsedPs);
        table.addRow({
            formatFrequency(rate),
            cellf("%.0f", static_cast<double>(transfer) /
                              static_cast<double>(cycleTimePs(rate))),
            formatSeconds(blocking.elapsedPs),
            formatSeconds(switching.elapsedPs),
            cellf("%+.1f%%", gain),
            formatSeconds(switching.stallPs),
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Break-even intuition: switching pays when the "
                "transfer is worth well over the ~400-instruction "
                "switch cost — i.e. at high issue rates and large "
                "pages (the paper's Sec 5.4 finding).\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
