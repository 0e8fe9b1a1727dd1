/**
 * @file
 * Shared scaffolding for the experiment benches: every binary under
 * bench/ regenerates one table or figure from the paper, printing the
 * same rows/series the paper reports plus a short header restating
 * what the paper found, so runs can be compared shape-for-shape (see
 * EXPERIMENTS.md).
 */

#ifndef RAMPAGE_BENCH_COMMON_HH
#define RAMPAGE_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "stats/table.hh"
#include "util/json.hh"

namespace rampage
{

/**
 * CLI entry point shared by every bench: records the run-setting
 * flags (the flag rows of core/run_settings.hh; README.md lists them
 * with their variables and defaults), runs `body` under cliMain()
 * (typed errors map to fatal/panic with a debug-ring post-mortem),
 * and — when --json <path> was given — writes the machine-readable
 * report on success.  --stats-filter <glob>
 * restricts the report's per-result "stats" dumps to matching
 * entries ('*' and '?'), e.g. 'dram.*'.
 *
 * The human-readable table on stdout is unchanged byte-for-byte; all
 * telemetry goes to stderr or the JSON file.
 */
int benchMain(int argc, char **argv, const std::function<int()> &body);

/**
 * Record one simulation into the bench's JSON report ("results"
 * array: label, system, issue_hz, elapsed_ps, seconds, optional
 * wall_seconds / simulate_seconds / refs_per_sec, and the full stats
 * snapshot).  refs_per_sec is computed from `simulate_seconds` — host
 * time inside Simulator::run proper — when it was measured, so the
 * throughput gate is not diluted by trace generation, audits or
 * checkpoint I/O; it falls back to `wall_seconds` otherwise.  No-op
 * unless --json was given.
 */
void benchRecordResult(const std::string &label, const SimResult &result,
                       double wall_seconds = 0,
                       double simulate_seconds = 0);

/**
 * Record an arbitrary derived row (a table/figure cell) into the
 * bench's JSON report ("rows" array).  No-op unless --json was given.
 */
void benchRecordRow(JsonValue row);

/** @return true when --json was given (recording is active). */
bool benchJsonActive();

/** Print the standard bench banner. */
void benchBanner(const std::string &title, const std::string &paper_says);

/** Print the scale the run used (refs, quantum, rates). */
void benchScale();

/** "128B"-style labels for the block/page sweep. */
std::vector<std::string> blockSizeLabels();

/**
 * Run one behavioural (blocking) simulation per block size for a
 * system family and return the results in sweep order.  `family` is
 * "baseline", "2way" or "rampage".  Points execute on the SweepRunner
 * worker pool (--jobs / RAMPAGE_JOBS); results are returned and
 * recorded in sweep order regardless of the job count, and the first
 * failing point is rethrown exactly as a serial run would raise it.
 */
std::vector<SimResult> runBlockingSweep(const std::string &family,
                                        std::uint64_t issue_hz);

/** Minimum elapsed time across a row of results priced at a rate. */
Tick bestTimePs(const std::vector<SimResult> &results,
                std::uint64_t issue_hz);

} // namespace rampage

#endif // RAMPAGE_BENCH_COMMON_HH
