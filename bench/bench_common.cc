#include "bench_common.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/cost_model.hh"
#include "obs/phase_profiler.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{

namespace
{

/** State of the per-process JSON report (empty path = disabled). */
struct BenchReport
{
    std::string path;
    std::string name;
    std::string statsFilter;
    std::vector<JsonValue> results;
    std::vector<JsonValue> rows;
};

BenchReport &
benchReport()
{
    static BenchReport report;
    return report;
}

std::string
baseName(const char *path)
{
    std::string text = path ? path : "bench";
    std::size_t slash = text.find_last_of('/');
    return slash == std::string::npos ? text : text.substr(slash + 1);
}

void
writeJsonReport()
{
    BenchReport &report = benchReport();
    if (report.path.empty())
        return;

    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::str(report.name));

    ExperimentScale scale = experimentScale();
    JsonValue scale_obj = JsonValue::object();
    scale_obj.set("refs", JsonValue::integer(scale.refs));
    scale_obj.set("quantum_refs", JsonValue::integer(scale.quantumRefs));
    doc.set("scale", std::move(scale_obj));

    // Host-side phase rollup: where this process (plus any --isolate
    // children, whose totals the sweep parent folded back in) spent
    // its wall clock.  Always emitted, zeros included, so report
    // consumers can diff the breakdown across runs.
    PhaseSeconds phases = phaseGlobalTotals();
    JsonValue phases_obj = JsonValue::object();
    for (std::size_t i = 0; i < sweepPhaseCount; ++i)
        phases_obj.set(sweepPhaseName(static_cast<SweepPhase>(i)),
                       JsonValue::number(phases[i]));
    doc.set("phases", std::move(phases_obj));

    JsonValue rows = JsonValue::array();
    for (JsonValue &row : report.rows)
        rows.push(std::move(row));
    doc.set("rows", std::move(rows));

    JsonValue results = JsonValue::array();
    for (JsonValue &entry : report.results)
        results.push(std::move(entry));
    doc.set("results", std::move(results));

    errno = 0;
    std::ofstream out(report.path);
    if (!out.is_open()) {
        int err = errno;
        if (err == ENOSPC || err == EIO)
            warnOnce("JSON report '%s': %s (host I/O failure, "
                     "category %s)",
                     report.path.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("cannot write JSON report to '%s'",
                 report.path.c_str());
        return;
    }
    out << doc.dump() << "\n";
    out.flush();
    if (!out) {
        // A full or failing disk surfaces here, after buffering: the
        // stream goes bad and errno carries the write(2) error.
        int err = errno;
        if (err == ENOSPC || err == EIO)
            warnOnce("JSON report '%s': %s (host I/O failure, "
                     "category %s); report is incomplete",
                     report.path.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("short write to JSON report '%s'; report is "
                 "incomplete",
                 report.path.c_str());
        return;
    }
    std::fprintf(stderr, "[json report written to %s]\n",
                 report.path.c_str());
}

} // namespace

int
benchMain(int argc, char **argv, const std::function<int()> &body)
{
    return cliMain([&]() -> int {
        benchReport().name = baseName(argc > 0 ? argv[0] : nullptr);
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            const RunSettingRow *row = findRunFlag(arg);
            bool switch_flag = row && row->hint.empty();
            if (row && (switch_flag || i + 1 < argc)) {
                std::string value = switch_flag ? "1" : argv[++i];
                applyRunFlag(arg, value);
                if (arg == "--json")
                    benchReport().path = value;
            } else if (arg == "--stats-filter" && i + 1 < argc) {
                benchReport().statsFilter = argv[++i];
            } else {
                throw ConfigError(
                    "unknown argument '%s'\nusage: %s %s "
                    "[--stats-filter <glob>]",
                    arg.c_str(), benchReport().name.c_str(),
                    runFlagUsage().c_str());
            }
        }
        int status = body();
        if (status == 0)
            writeJsonReport();
        return status;
    });
}

bool
benchJsonActive()
{
    return !benchReport().path.empty();
}

void
benchRecordResult(const std::string &label, const SimResult &result,
                  double wall_seconds, double simulate_seconds)
{
    if (!benchJsonActive())
        return;
    JsonValue entry = JsonValue::object();
    entry.set("label", JsonValue::str(label));
    entry.set("system", JsonValue::str(result.systemName));
    entry.set("issue_hz", JsonValue::integer(result.issueHz));
    entry.set("elapsed_ps", JsonValue::integer(result.elapsedPs));
    entry.set("seconds", JsonValue::number(result.seconds()));
    if (wall_seconds > 0)
        entry.set("wall_seconds", JsonValue::number(wall_seconds));
    if (simulate_seconds > 0)
        entry.set("simulate_seconds",
                  JsonValue::number(simulate_seconds));
    // Throughput over the simulate phase when measured; the point's
    // wall time (trace generation, audits, checkpointing included)
    // is only a fallback denominator.
    double denom = simulate_seconds > 0 ? simulate_seconds
                                        : wall_seconds;
    if (denom > 0)
        entry.set("refs_per_sec",
                  JsonValue::number(
                      static_cast<double>(result.counts.refs) /
                      denom));
    if (!result.traceFile.empty())
        entry.set("trace_file", JsonValue::str(result.traceFile));
    if (!result.intervalFile.empty())
        entry.set("interval_file", JsonValue::str(result.intervalFile));
    const std::string &filter = benchReport().statsFilter;
    entry.set("stats", filter.empty()
                           ? result.stats.toJson()
                           : result.stats.filter(filter).toJson());
    benchReport().results.push_back(std::move(entry));
}

void
benchRecordRow(JsonValue row)
{
    if (!benchJsonActive())
        return;
    benchReport().rows.push_back(std::move(row));
}

void
benchBanner(const std::string &title, const std::string &paper_says)
{
    std::printf("================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper: %s\n", paper_says.c_str());
    std::printf("================================================================\n");
}

void
benchScale()
{
    ExperimentScale scale = experimentScale();
    std::printf("scale: %llu refs per run, %llu-ref time slices "
                "(RAMPAGE_REFS / RAMPAGE_QUANTUM / RAMPAGE_FULL=1 to "
                "change)\n\n",
                static_cast<unsigned long long>(scale.refs),
                static_cast<unsigned long long>(scale.quantumRefs));
}

std::vector<std::string>
blockSizeLabels()
{
    std::vector<std::string> labels;
    for (std::uint64_t size : blockSizeSweep())
        labels.push_back(formatByteSize(size));
    return labels;
}

namespace
{

/** Map a sweep family name to the HierarchyConfig it simulates. */
HierarchyConfig
familyConfig(const std::string &family, std::uint64_t issue_hz,
             std::uint64_t size)
{
    if (family == "baseline")
        return baselineConfig(issue_hz, size);
    if (family == "2way")
        return twoWayConfig(issue_hz, size);
    if (family == "rampage")
        return rampageConfig(issue_hz, size);
    throw ConfigError("unknown system family '%s'", family.c_str());
}

} // namespace

std::vector<SimResult>
runBlockingSweep(const std::string &family, std::uint64_t issue_hz)
{
    SimConfig sim = defaultSimConfig();
    // The block-size points are independent, so they run on the
    // SweepRunner worker pool (--jobs / RAMPAGE_JOBS; serial by
    // default).  Outcomes come back in add() order, so the JSON
    // results and the returned vector are identical for any job
    // count.
    SweepRunner runner;
    for (std::uint64_t size : blockSizeSweep()) {
        std::string id = family + "/" + formatByteSize(size);
        HierarchyConfig config = familyConfig(family, issue_hz, size);
        runner.add(id, [=] { return simulateSystem(config, sim); });
    }

    SweepReport report = runner.run();
    std::vector<SimResult> results;
    results.reserve(report.outcomes.size());
    for (const PointOutcome &outcome : report.outcomes) {
        if (outcome.status != PointStatus::Ok) {
            // A bench has no per-point fault tolerance: surface the
            // first failure exactly as a serial run would have, with
            // its debug-ring tail replayed onto this thread so
            // cliMain's post-mortem flush still shows it.
            debugReplay(outcome.debugTail);
            if (outcome.exception)
                std::rethrow_exception(outcome.exception);
            throw InternalError("sweep point '%s' failed: %s",
                                outcome.id.c_str(),
                                outcome.error.c_str());
        }
        benchRecordResult(outcome.id, outcome.result,
                          outcome.wallSeconds,
                          outcome.simulateSeconds());
        results.push_back(outcome.result);
    }
    return results;
}

Tick
bestTimePs(const std::vector<SimResult> &results, std::uint64_t issue_hz)
{
    Tick best = ~Tick{0};
    for (const SimResult &result : results)
        best = std::min(best, totalTimePs(result.counts, issue_hz));
    return best;
}

} // namespace rampage
