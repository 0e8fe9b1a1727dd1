/**
 * @file
 * Runtime configuration for the timeline-observability layer
 * (src/obs/): which of the three facilities are on, where their files
 * go, and how per-point output files are named.
 *
 * Everything here is OFF by default and side-effect-free when off —
 * an un-instrumented run is byte-identical to a pre-obs build.  The
 * knobs (--trace-out, --stats-interval, RAMPAGE_TRACE_RING, ...) are
 * rows of the run-settings table, core/run_settings.hh.
 *
 * Output files are *per simulation run*: a sweep campaign with
 * tracing on produces one trace file and one interval file per point,
 * named after the point id (SweepRunner installs the id as the
 * calling thread's obs label before running the body, so the scheme
 * composes with --jobs worker threads and --isolate forked children
 * alike).  Runs outside a sweep fall back to a process-wide sequence
 * number.
 */

#ifndef RAMPAGE_OBS_OBS_CONFIG_HH
#define RAMPAGE_OBS_OBS_CONFIG_HH

#include <cstdint>
#include <string>

namespace rampage
{

/** Default trace-ring capacity (events) when none is configured. */
constexpr std::size_t defaultTraceRingCapacity = 1u << 18;

/** Resolved observability settings for one simulation run. */
struct ObsSettings
{
    /** Trace-file base path; "" disables event tracing. */
    std::string traceOutBase;
    /** Benchmark refs per interval-stats epoch; 0 disables. */
    std::uint64_t statsIntervalRefs = 0;
    /**
     * Interval-file base path: traceOutBase when tracing is on, else
     * the --json report path minus ".json", else "rampage".
     */
    std::string intervalOutBase;
    /** Trace-ring capacity in events (drops are counted beyond it). */
    std::size_t traceRingCapacity = defaultTraceRingCapacity;
};

/**
 * Label the calling thread's simulation runs for output-file naming
 * (SweepRunner sets the point id; "" reverts to sequence numbering).
 * Thread-local, so concurrent workers never share a label.
 */
void setObsPointLabel(const std::string &label);

/** The calling thread's current obs label ("" when unset). */
const std::string &obsPointLabel();

/** RAII label scope: installs on construction, clears on exit. */
struct ObsPointLabelScope
{
    explicit ObsPointLabelScope(const std::string &label)
    {
        setObsPointLabel(label);
    }
    ~ObsPointLabelScope() { setObsPointLabel(""); }
};

/**
 * Per-run output path: `base` + "." + the sanitized thread label (or
 * "runNNN" from a process-wide counter when unlabeled) + `suffix`.
 * Sanitization maps every character outside [A-Za-z0-9._-] to '_',
 * so sweep point ids like "rampage/1KB" become safe file names.
 */
std::string obsRunFilePath(const std::string &base, const char *suffix);

} // namespace rampage

#endif // RAMPAGE_OBS_OBS_CONFIG_HH
