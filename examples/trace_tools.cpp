/**
 * @file
 * Trace utility: generate, convert and inspect trace files in the
 * native binary and Dinero `din` formats.  This is the bridge for
 * replacing the synthetic workload with real traces captured via
 * Pin or Valgrind (dump those as `din`, then feed them back with
 * `FileTraceSource`).
 *
 * Usage:
 *   trace_tools gen <benchmark> <refs> <out-file> [--din]
 *   trace_tools convert <in-file> <out-file> [--din]
 *   trace_tools info <file>
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "core/run_settings.hh"
#include "stats/histogram.hh"
#include "trace/benchmarks.hh"
#include "trace/file_format.hh"
#include "trace/synthetic.hh"
#include "util/error.hh"
#include "util/logging.hh"

using namespace rampage;

namespace
{

int
cmdGen(int argc, char **argv)
{
    if (argc < 5)
        fatal("usage: trace_tools gen <benchmark> <refs> <out> [--din]");
    const ProgramProfile &profile = benchmarkProfile(argv[2]);
    std::uint64_t refs = parsePositive("refs", argv[3]);
    bool din = argc > 5 && std::strcmp(argv[5], "--din") == 0;

    SyntheticProgram prog(profile, 0);
    TraceWriter writer(argv[4], din);
    MemRef ref;
    for (std::uint64_t i = 0; i < refs; ++i) {
        prog.next(ref);
        writer.write(ref);
    }
    std::printf("wrote %llu references of '%s' to %s (%s)\n",
                static_cast<unsigned long long>(writer.count()),
                profile.name.c_str(), argv[4],
                din ? "din" : "native");
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        fatal("usage: trace_tools convert <in> <out> [--din]");
    bool din = argc > 4 && std::strcmp(argv[4], "--din") == 0;
    FileTraceSource in(argv[2]);
    TraceWriter out(argv[3], din);
    MemRef ref;
    while (in.next(ref))
        out.write(ref);
    std::printf("converted %llu references (%s -> %s)\n",
                static_cast<unsigned long long>(out.count()),
                in.isNative() ? "native" : "din",
                din ? "din" : "native");
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        fatal("usage: trace_tools info <file>");
    FileTraceSource in(argv[2]);
    std::uint64_t fetches = 0, loads = 0, stores = 0;
    Addr min_addr = ~Addr{0}, max_addr = 0;
    Log2Histogram stride_hist;
    Addr prev = 0;
    bool first = true;
    MemRef ref;
    while (in.next(ref)) {
        switch (ref.kind) {
          case RefKind::IFetch:
            ++fetches;
            break;
          case RefKind::Load:
            ++loads;
            break;
          case RefKind::Store:
            ++stores;
            break;
        }
        min_addr = std::min(min_addr, ref.vaddr);
        max_addr = std::max(max_addr, ref.vaddr);
        if (!first) {
            Addr delta = ref.vaddr > prev ? ref.vaddr - prev
                                          : prev - ref.vaddr;
            stride_hist.add(delta);
        }
        prev = ref.vaddr;
        first = false;
    }
    std::uint64_t total = fetches + loads + stores;
    std::printf("%s: %llu refs (%s format)\n", argv[2],
                static_cast<unsigned long long>(total),
                in.isNative() ? "native" : "din");
    if (total == 0)
        return 0;
    std::printf("  ifetch %llu (%.1f%%)  load %llu (%.1f%%)  "
                "store %llu (%.1f%%)\n",
                static_cast<unsigned long long>(fetches),
                100.0 * fetches / total,
                static_cast<unsigned long long>(loads),
                100.0 * loads / total,
                static_cast<unsigned long long>(stores),
                100.0 * stores / total);
    std::printf("  address range [%#llx, %#llx]\n",
                static_cast<unsigned long long>(min_addr),
                static_cast<unsigned long long>(max_addr));
    std::printf("  successive-reference distance histogram:\n%s",
                stride_hist.render().c_str());
    return 0;
}

} // namespace

static int
runTool(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: trace_tools gen|convert|info ...");
    if (std::strcmp(argv[1], "gen") == 0)
        return cmdGen(argc, argv);
    if (std::strcmp(argv[1], "convert") == 0)
        return cmdConvert(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return cmdInfo(argc, argv);
    fatal("unknown subcommand '%s'", argv[1]);
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
