/**
 * @file
 * rampage_perfbench — the simulator benchmark.
 *
 *   rampage_perfbench --workload NAME [--seed N] [--seconds S]
 *                     [--trace 0|1] [--spans FILE]
 *
 * --trace 0 measures the end-to-end metrics from untraced runs;
 * --trace 1 does one untraced pass, then traced passes that replay the
 * simulator's schedule from outside with a span around every public
 * call, and reports the per-layer metrics.  Every simulated result is
 * checked (digest, reference identity, conservation); failures are
 * counted against the points attempted.  The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 * See perfbench/README.md for the metrics and workloads.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "components.hh"
#include "core/cost_model.hh"
#include "core/factory.hh"
#include "core/sweep.hh"
#include "digest.hh"
#include "replay.hh"
#include "spans.hh"
#include "trace/benchmarks.hh"
#include "util/error.hh"
#include "workloads.hh"

using namespace perfbench;
using rampage::SimResult;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rampage_perfbench: %s\n"
                 "usage: rampage_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans FILE]\n"
                 "workloads:",
                 why);
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage((std::string(flag) + " needs a non-negative integer").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned("--seed", value);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            opt.seconds = std::strtod(value, &end);
            if (end == value || *end || !(opt.seconds > 0))
                usage("--seconds needs a positive number");
        } else if (flag == "--trace") {
            std::string v = value;
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (flag == "--spans") {
            opt.spansPath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

/** Counts points attempted and failed; keeps the first messages. */
struct Checker
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    void
    fail(const std::string &what)
    {
        correct = false;
        if (++messages <= 20)
            std::printf("CHECK FAILED: %s\n", what.c_str());
    }

    /** One point outcome: ok and passing its checks, or a failure. */
    void
    point(const std::string &id, bool ran, const std::string &error)
    {
        ++attempted;
        if (!ran || !error.empty()) {
            ++failed;
            fail(id + ": " + (ran ? error : "threw: " + error));
        }
    }

  private:
    unsigned messages = 0;
};

/** One pass over every point of a workload. */
struct Pass
{
    std::vector<PointRun> runs;
    std::vector<bool> ran;
    double wallSeconds = 0;
    std::vector<std::unique_ptr<SpanRecorder>> recorders;
};

/**
 * Run every point of `spec` once on a SweepRunner with `workers`
 * workers, through `driver`.  Traced drivers record into one
 * SpanRecorder per point, labelled "<tag>/<point id>".
 */
Pass
runPass(const WorkloadSpec &spec, std::uint64_t seed, unsigned workers,
        Driver driver, const std::string &tag, Checker &checker)
{
    Pass pass;
    const std::size_t n = spec.points.size();
    pass.runs.resize(n);
    pass.ran.assign(n, false);
    if (driver != Driver::Simulator)
        for (const PointSpec &point : spec.points)
            pass.recorders.push_back(
                std::make_unique<SpanRecorder>(tag + "/" + point.id));

    rampage::SweepRunner::Options options;
    options.jobs = workers;
    options.isolate = 0;
    options.maxRetries = 0;
    options.pointDeadlineSeconds = -1;
    rampage::SweepRunner runner(options);
    for (std::size_t i = 0; i < n; ++i) {
        SpanRecorder *rec =
            pass.recorders.empty() ? nullptr : pass.recorders[i].get();
        runner.add(spec.points[i].id, [&, i, rec] {
            pass.runs[i] =
                executePoint(spec.points[i], spec.refs, seed, driver, rec);
            return pass.runs[i].result;
        });
    }
    std::int64_t start = nowNs();
    rampage::SweepReport report = runner.run();
    pass.wallSeconds = secondsBetween(start, nowNs());

    for (std::size_t i = 0; i < n; ++i) {
        const rampage::PointOutcome &outcome = report.outcomes[i];
        pass.ran[i] = outcome.status == rampage::PointStatus::Ok;
        std::string error =
            pass.ran[i] ? checkResult(pass.runs[i].result, spec.refs,
                                      spec.points[i].blocking())
                        : outcome.error;
        checker.point(tag + "/" + spec.points[i].id, pass.ran[i], error);
    }
    return pass;
}

/** Compare a pass's digests with the reference pass's. */
void
compareDigests(const WorkloadSpec &spec, const Pass &ref, Pass &pass,
               const std::string &what, Checker &checker)
{
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        if (!ref.ran[i] || !pass.ran[i])
            continue;
        std::uint64_t want = statsDigest(ref.runs[i].result);
        std::uint64_t got = statsDigest(pass.runs[i].result);
        if (want != got) {
            ++checker.failed;
            checker.fail(spec.points[i].id + ": digest mismatch (" + what +
                         ")");
        }
    }
}

/** Summed count over a pass's point results. */
std::uint64_t
passCounter(const Pass &pass, const std::string &name)
{
    std::uint64_t total = 0;
    for (const PointRun &run : pass.runs)
        total += sumCounter(run.result.stats, name);
    return total;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/**
 * Peak resident memory of this program image (VmHWM).  Unlike
 * getrusage's ru_maxrss, it restarts at exec, so a launcher's own
 * footprint does not leak into the figure.
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status) {
        char line[256];
        unsigned long kib = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof line, status))
            found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
        std::fclose(status);
        if (found)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Metrics by name, in insertion order, with units. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit,
        const std::string &note = "")
    {
        items.push_back({name, value, unit});
        std::printf("  %-40s %16.6g %-6s %s\n", name.c_str(), value, unit,
                    note.c_str());
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[128];
        for (std::size_t i = 0; i < items.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", items[i].value);
            out += (i ? ", \"" : "\"") + items[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   items[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items;
};

/** Spread line: median, quartiles and sample count of a series. */
std::string
spread(const std::vector<double> &values)
{
    char buf[160];
    if (values.size() < 2) {
        std::snprintf(buf, sizeof buf, "(n=%zu)", values.size());
        return buf;
    }
    std::vector<double> q = quartiles(values);
    std::snprintf(buf, sizeof buf, "(median of n=%zu; q1 %.6g, q3 %.6g)",
                  values.size(), q[0], q[2]);
    return buf;
}

/** Table 3 re-priced at every issue rate (blocking points only). */
void
printTable3(const WorkloadSpec &spec, const Pass &pass)
{
    std::printf("Table 3 (elapsed simulated s, re-priced per issue rate; "
                "synthetic Table 2 workload, model unvalidated):\n");
    std::printf("  %-16s", "point");
    for (std::uint64_t rate : table3IssueRates())
        std::printf(" %9.1fMHz", static_cast<double>(rate) / 1e6);
    std::printf("\n");
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        if (!pass.ran[i] || !spec.points[i].blocking())
            continue;
        std::printf("  %-16s", spec.points[i].id.c_str());
        for (std::uint64_t rate : table3IssueRates())
            std::printf(" %12.6f",
                        static_cast<double>(rampage::totalTimePs(
                            pass.runs[i].result.counts, rate)) /
                            1e12);
        std::printf("\n");
    }
}

/** Checks every workload must meet: SRAM page replacement is active. */
void
checkWorkloadReach(const Pass &pass, Checker &checker)
{
    std::uint64_t dirty = passCounter(pass, "pager.dirty_writebacks");
    std::printf("workload reach: pager.dirty_writebacks = %" PRIu64
                " (must be > 0)\n",
                dirty);
    if (dirty == 0)
        checker.fail("no SRAM page replacement (pager.dirty_writebacks "
                     "== 0): the workload is too short");
}

/** `reps` set-up samples, each summed over every point of the workload. */
std::vector<double>
measureSetup(const WorkloadSpec &spec, std::uint64_t seed, unsigned reps)
{
    std::vector<double> samples;
    for (unsigned r = 0; r < reps; ++r) {
        double total = 0;
        for (const PointSpec &point : spec.points) {
            std::int64_t start = nowNs();
            std::unique_ptr<rampage::Hierarchy> hier =
                rampage::makeHierarchy(point.config);
            auto workload = rampage::makeWorkload(seed);
            total += secondsBetween(start, nowNs());
        }
        samples.push_back(total);
    }
    return samples;
}

void
runEndToEnd(const WorkloadSpec &spec, const Options &opt, Checker &checker,
            Metrics &metrics)
{
    // Set-up is well under 1 ms per point: sample it repeatedly,
    // spread over the run, and take the median.
    std::vector<double> setup;
    auto sample_setup = [&] {
        std::vector<double> more = measureSetup(spec, opt.seed, 11);
        setup.insert(setup.end(), more.begin(), more.end());
    };
    sample_setup();

    // Reference pass on one worker; timed passes use the workload's
    // worker count, so the 1-vs-N-worker digest check rides along.
    Pass ref = runPass(spec, opt.seed, 1, Driver::Simulator, "ref", checker);
    checkWorkloadReach(ref, checker);

    std::vector<double> walls, rates;
    std::int64_t start = nowNs();
    for (unsigned iter = 0;
         iter < 3 || secondsBetween(start, nowNs()) < opt.seconds; ++iter) {
        sample_setup();
        Pass pass = runPass(spec, opt.seed, spec.workers, Driver::Simulator,
                            "iter" + std::to_string(iter), checker);
        compareDigests(spec, ref, pass,
                       "timed pass " + std::to_string(iter) + " vs " +
                           "1-worker reference",
                       checker);
        double refs = 0, simulate = 0;
        for (const PointRun &run : pass.runs) {
            refs += static_cast<double>(run.result.counts.refs);
            simulate += run.simulateSeconds();
        }
        walls.push_back(pass.wallSeconds);
        rates.push_back(ratio(refs, simulate));
    }

    if (spec.name == "table3_sweep")
        printTable3(spec, ref);
    std::printf("end-to-end metrics (%s, seed %" PRIu64
                ", %zu points x %" PRIu64 " refs, %u workers):\n",
                spec.name.c_str(), opt.seed, spec.points.size(), spec.refs,
                spec.workers);
    metrics.add("wall_s", median(walls), "s", spread(walls));
    metrics.add("simulate_refs_per_s", median(rates), "1/s", spread(rates));
    metrics.add("setup_s", median(setup), "s", spread(setup));
    metrics.add("peak_rss_mb", peakRssMb(), "MB", "(process VmHWM)");
    std::printf("  points_failed %" PRIu64 " of %" PRIu64
                " points attempted\n",
                checker.failed, checker.attempted);
}

/** Span totals of one traced pass, by span name. */
std::map<std::string, NameTotals>
passTotals(const Pass &pass)
{
    std::map<std::string, NameTotals> totals;
    for (const auto &rec : pass.recorders)
        addNameTotals(rec->spans(), totals);
    return totals;
}

void
runTraced(const WorkloadSpec &spec, const Options &opt, Checker &checker,
          Metrics &metrics)
{
    const std::uint64_t seed = opt.seed;

    // Pairs of passes: untraced Simulator::run, then the schedule
    // replayed from outside with spans.  Pairing keeps both sides of
    // obs.tracing_overhead equally warm.
    std::vector<Pass> untraced, traced;
    std::vector<double> untraced_simulate;
    std::int64_t start = nowNs();
    for (unsigned iter = 0;
         iter < 1 || secondsBetween(start, nowNs()) < opt.seconds; ++iter) {
        const std::string n = std::to_string(iter);
        untraced.push_back(runPass(spec, seed, spec.workers,
                                   Driver::Simulator, "untraced" + n,
                                   checker));
        traced.push_back(runPass(spec, seed, spec.workers, Driver::Replay,
                                 "traced" + n, checker));
        compareDigests(spec, untraced.front(), untraced.back(),
                       "untraced pass " + n + " vs pass 0", checker);
        compareDigests(spec, untraced.back(), traced.back(),
                       "outside replay vs Simulator::run", checker);
        double simulate = 0;
        for (const PointRun &run : untraced.back().runs)
            simulate += run.simulateSeconds();
        untraced_simulate.push_back(simulate);
    }
    checkWorkloadReach(untraced.front(), checker);

    // Simulator::run itself, its sources behind timing forwarders.
    Pass forwarded = runPass(spec, seed, spec.workers, Driver::Forwarded,
                             "forwarded", checker);
    compareDigests(spec, untraced.front(), forwarded,
                   "forwarded Simulator::run vs untraced", checker);

    // Translation cache off vs on, on the probe point (stat-neutral).
    const PointSpec &probe = spec.points[spec.probePoint];
    const std::uint64_t probe_refs = std::min<std::uint64_t>(spec.refs,
                                                             8'000'000);
    double batch_on = 0, batch_off = 0;
    std::uint64_t probe_trace_refs = 0;
    {
        SpanRecorder on("transcache/on/" + probe.id);
        SpanRecorder off("transcache/off/" + probe.id);
        PointRun run_on =
            executePoint(probe, probe_refs, seed, Driver::Replay, &on);
        PointRun run_off = executePoint(probe, probe_refs, seed,
                                        Driver::Replay, &off, false);
        checker.point(on.point(), true,
                      checkResult(run_on.result, probe_refs,
                                  probe.blocking()));
        checker.point(off.point(), true,
                      checkResult(run_off.result, probe_refs,
                                  probe.blocking()));
        if (statsDigest(run_on.result) != statsDigest(run_off.result)) {
            ++checker.failed;
            checker.fail(probe.id + ": translation cache changed the "
                                    "simulated statistics");
        }
        std::map<std::string, NameTotals> t_on, t_off;
        addNameTotals(on.spans(), t_on);
        addNameTotals(off.spans(), t_off);
        batch_on = t_on["core.access_batch"].totalSeconds;
        batch_off = t_off["core.access_batch"].totalSeconds;
        probe_trace_refs = sumCounter(run_on.result.stats, "sim.trace_refs");
    }

    // 16 M references overflow the SRAM main memory of every probe
    // point, so the page-fault replay includes replacement.
    ComponentCosts costs =
        measureComponents(probe, seed, 1'000'000, 16'000'000);

    // Per-pass span totals -> per-pass metric series.
    const Pass &first = traced.front();
    const double trace_refs = static_cast<double>(
        passCounter(first, "sim.trace_refs"));
    const double sim_refs =
        static_cast<double>(passCounter(first, "sim.refs"));
    std::vector<double> fill_s, fill_ns, fill_share, batch_ns, sim_ref_ns,
        ctx_us, snap_ms, batch_s, batch_ctx_s, p50, pmax, busy, overhead;
    double refs_generated = 0, builds = 0;
    for (const Pass &pass : traced) {
        std::map<std::string, NameTotals> t = passTotals(pass);
        std::vector<double> point_s;
        double point_total = 0;
        for (const auto &rec : pass.recorders)
            for (const Span &span : rec->spans())
                if (span.parent < 0) {
                    point_s.push_back(span.seconds());
                    point_total += span.seconds();
                }
        double generated = 0;
        for (const PointRun &run : pass.runs)
            generated += static_cast<double>(run.refsFilled);
        refs_generated = generated;
        builds = static_cast<double>(t["setup.make_workload"].count);

        fill_s.push_back(t["trace.fill"].totalSeconds);
        fill_ns.push_back(ratio(t["trace.fill"].totalSeconds * 1e9,
                                generated));
        fill_share.push_back(ratio(t["trace.fill"].totalSeconds,
                                   point_total));
        double batch = t["core.access_batch"].totalSeconds;
        double ctx = t["core.context_switch"].totalSeconds;
        batch_s.push_back(batch);
        batch_ctx_s.push_back(batch + ctx);
        batch_ns.push_back(ratio(batch * 1e9, trace_refs));
        sim_ref_ns.push_back(ratio((batch + ctx) * 1e9, sim_refs));
        ctx_us.push_back(
            ratio(ctx * 1e6,
                  static_cast<double>(t["core.context_switch"].count)));
        snap_ms.push_back(
            ratio(t["stats.snapshot"].totalSeconds * 1e3,
                  static_cast<double>(t["stats.snapshot"].count)));
        p50.push_back(median(point_s));
        double worst = 0;
        for (double s : point_s)
            worst = std::max(worst, s);
        pmax.push_back(worst);
        busy.push_back(ratio(point_total, pass.wallSeconds * spec.workers));
    }
    for (std::size_t i = 0; i < traced.size(); ++i)
        overhead.push_back(
            ratio(traced[i].wallSeconds, untraced[i].wallSeconds));

    auto sum = [&](const char *name) {
        return static_cast<double>(passCounter(first, name));
    };

    // Component estimates, on the probe point alone: its counts times
    // the replayed per-call costs, against its own accessBatch time.
    const rampage::StatsSnapshot &probe_stats =
        first.runs[spec.probePoint].result.stats;
    auto probe_sum = [&](const char *name) {
        return static_cast<double>(sumCounter(probe_stats, name));
    };
    std::vector<double> probe_batch_s;
    for (const Pass &pass : traced) {
        std::map<std::string, NameTotals> t;
        addNameTotals(pass.recorders[spec.probePoint]->spans(), t);
        probe_batch_s.push_back(t["core.access_batch"].totalSeconds);
    }
    const double probe_batch = median(probe_batch_s);
    const double l1_est =
        (probe_sum("l1i.hits") + probe_sum("l1i.misses") +
         probe_sum("l1d.hits") + probe_sum("l1d.misses")) *
        costs.l1ProbeNs * 1e-9;
    const double tlb_est = (probe_sum("tlb.hits") + probe_sum("tlb.misses")) *
                           costs.tlbLookupNs * 1e-9;
    const double fault_est =
        probe_sum("pager.faults") * costs.faultNs * 1e-9;
    const double dram_est =
        (probe_sum("dram.reads") + probe_sum("dram.writes")) *
        costs.dramPriceNs * 1e-9;
    const double est = l1_est + tlb_est + fault_est + dram_est;

    const double l1i = sum("l1i.hits") + sum("l1i.misses");
    const double l1d = sum("l1d.hits") + sum("l1d.misses");
    const double tlb_lookups = sum("tlb.hits") + sum("tlb.misses");
    double elapsed_core_ps = 0;
    for (std::size_t i = 0; i < spec.points.size(); ++i)
        elapsed_core_ps +=
            static_cast<double>(first.runs[i].result.elapsedPs) *
            spec.points[i].config.common().cores;
    double elapsed_ps = 0;
    for (const PointRun &run : first.runs)
        elapsed_ps += static_cast<double>(run.result.elapsedPs);

    std::printf("per-layer metrics (%s, seed %" PRIu64 ", %zu traced "
                "passes; times are medians over passes, counts summed "
                "over points and cores):\n",
                spec.name.c_str(), seed, traced.size());
    const std::string base_refs =
        "(base " + std::to_string(static_cast<std::uint64_t>(trace_refs)) +
        " trace refs)";
    metrics.add("trace.fill_s", median(fill_s), "s", spread(fill_s));
    metrics.add("trace.fill_ns_per_ref", median(fill_ns), "ns",
                "(base: refs generated)");
    metrics.add("trace.workload_builds", builds, "count",
                "(makeWorkload calls per pass)");
    metrics.add("trace.refs_generated", refs_generated, "count");
    metrics.add("trace.share", median(fill_share), "ratio",
                "(base: summed point span time)");
    metrics.add("core.access_batch_ns_per_ref", median(batch_ns), "ns",
                base_refs);
    metrics.add("core.ns_per_sim_ref", median(sim_ref_ns), "ns",
                "(accessBatch + context switch; base " +
                    std::to_string(static_cast<std::uint64_t>(sim_refs)) +
                    " sim refs, handler refs included)");
    metrics.add("core.ctx_switch_us", median(ctx_us), "us",
                "(per runContextSwitchTrace call)");
    metrics.add("core.simulate_s", median(untraced_simulate), "s",
                "(untraced Simulator::run, trace generation excluded)");
    metrics.add("core.driver_ns_per_ref",
                ratio((median(untraced_simulate) - median(batch_ctx_s)) *
                          1e9,
                      trace_refs),
                "ns",
                "(Simulator::run simulate time - replay accessBatch and "
                "context switch; " +
                    base_refs.substr(1));
    const std::string probe_base = "probe point " + probe.id +
                                   ", accessBatch time " +
                                   std::to_string(probe_batch) + " s";
    metrics.add("core.components_est_s", est, "s",
                "(L1 + TLB + fault + DRAM count x ns estimates; " +
                    probe_base + ")");
    metrics.add("core.unattributed_s", probe_batch - est, "s",
                "(accessBatch time the estimates leave over)");
    metrics.add("core.unattributed_share",
                ratio(probe_batch - est, probe_batch), "ratio",
                "(base: " + probe_base + ")");
    metrics.add("tlb.misses", sum("tlb.misses"), "count");
    metrics.add("tlb.miss_ratio", ratio(sum("tlb.misses"), tlb_lookups),
                "ratio", "(base: TLB lookups)");
    metrics.add("tlb.lookup_ns", costs.tlbLookupNs, "ns",
                "(per translation: last-translation cache + Tlb::lookup "
                "replay, base " +
                    std::to_string(costs.tlbLookups) + " translations, " +
                    std::to_string(costs.tlbScans) + " reached the TLB)");
    metrics.add("tlb.lookup_est_s", tlb_est, "s");
    metrics.add("tlb.trans_cache_saving_ns_per_ref",
                ratio((batch_off - batch_on) * 1e9,
                      static_cast<double>(probe_trace_refs)),
                "ns",
                "(" + probe.id + " replay, translation cache off - on, base " +
                    std::to_string(probe_trace_refs) + " trace refs)");
    metrics.add("handlers.overhead_ratio",
                ratio(sum("sim.overhead_refs"), sum("sim.trace_refs")),
                "ratio", "(base: trace refs)");
    metrics.add("handlers.tlb_miss_refs", sum("sim.tlb_miss_overhead_refs"),
                "count");
    metrics.add("handlers.fault_refs", sum("sim.fault_overhead_refs"),
                "count");
    metrics.add("os.page_faults", sum("pager.faults"), "count");
    metrics.add("os.dirty_writebacks", sum("pager.dirty_writebacks"),
                "count");
    metrics.add("os.fault_ns", costs.faultNs, "ns",
                "(PageStore::handleFault replay, base " +
                    std::to_string(costs.faults) + " faults, " +
                    std::to_string(costs.faultDirtyVictims) +
                    " dirty victims)");
    metrics.add("os.fault_est_s", fault_est, "s");
    metrics.add("os.sched_switches", sum("sim.context_switches"), "count");
    metrics.add("os.stall_share", ratio(sum("sim.stall_ps"), elapsed_core_ps),
                "ratio", "(base: elapsed ps x cores)");
    metrics.add("cache.l1i_miss_ratio", ratio(sum("l1i.misses"), l1i),
                "ratio");
    metrics.add("cache.l1d_miss_ratio", ratio(sum("l1d.misses"), l1d),
                "ratio");
    metrics.add("cache.l1_writebacks", sum("sim.l1_writebacks"), "count");
    metrics.add("cache.l2_miss_ratio",
                ratio(sum("sim.l2_misses"), sum("sim.l2_accesses")), "ratio",
                "(L2 or SRAM main memory)");
    metrics.add("cache.l1_probe_ns", costs.l1ProbeNs, "ns",
                "(SetAssocCache::access replay, base " +
                    std::to_string(costs.l1Probes) + " calls)");
    metrics.add("cache.l1_probe_est_s", l1_est, "s");
    metrics.add("dram.reads", sum("dram.reads"), "count");
    metrics.add("dram.writes", sum("dram.writes"), "count");
    metrics.add("dram.bytes",
                [&] {
                    double bytes = 0;
                    for (const PointRun &run : first.runs)
                        bytes += static_cast<double>(
                            sumHistogram(run.result.stats, "dram.tx_bytes"));
                    return bytes;
                }(),
                "B");
    metrics.add("dram.transfer_share",
                ratio(sum("dram.transfer_ps"), elapsed_ps), "ratio",
                "(base: elapsed ps)");
    metrics.add("dram.price_ns", costs.dramPriceNs, "ns",
                "(DramModel::readPs replay, base " +
                    std::to_string(costs.dramPrices) + " calls)");
    metrics.add("dram.price_est_s", dram_est, "s");
    metrics.add("stats.snapshot_ms", median(snap_ms), "ms",
                "(per StatsRegistry::snapshot call)");
    metrics.add("sweep.point_s_p50", median(p50), "s");
    metrics.add("sweep.point_s_max", median(pmax), "s");
    metrics.add("sweep.worker_busy_share", median(busy), "ratio",
                "(base: workers x pass wall)");
    metrics.add("obs.tracing_overhead", median(overhead), "ratio",
                "(traced pass wall / the paired untraced pass wall)");

    // Self time by span name, first traced pass.
    std::printf("span self time, traced pass 0 (name: count, total s, "
                "self s):\n");
    for (const auto &[name, t] : passTotals(first))
        std::printf("  %-24s %10" PRIu64 " %12.6f %12.6f\n", name.c_str(),
                    t.count, t.totalSeconds, t.selfSeconds);

    if (!opt.spansPath.empty()) {
        std::vector<const SpanRecorder *> all;
        for (const Pass &pass : traced)
            for (const auto &rec : pass.recorders)
                all.push_back(rec.get());
        for (const auto &rec : forwarded.recorders)
            all.push_back(rec.get());
        if (writeSpansJsonl(opt.spansPath, all))
            std::printf("spans written to %s\n", opt.spansPath.c_str());
        else
            checker.fail("cannot write span file " + opt.spansPath);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    WorkloadSpec spec;
    try {
        spec = makeWorkloadSpec(opt.workload);
    } catch (const rampage::SimError &e) {
        usage(e.what());
    }

    Checker checker;
    Metrics metrics;
    try {
        if (opt.trace)
            runTraced(spec, opt, checker, metrics);
        else
            runEndToEnd(spec, opt, checker, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rampage_perfbench: %s\n", e.what());
        return 1;
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                checker.correct && checker.failed == 0 ? "true" : "false",
                checker.attempted, checker.failed, metrics.json().c_str());
    return 0;
}
