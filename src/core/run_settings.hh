/**
 * @file
 * Every run knob in one table: the RAMPAGE_* environment variables
 * and the benches' run-setting flags, each resolved by one rule.
 *
 * A row names its benchMain flag (if any), its environment variable
 * (if any), a usage hint, and the function that parses and validates
 * the text into the RunSettings record.  runSettings() resolves the
 * record row by row:
 *
 *   flag recorded by applyRunFlag()  >  non-empty variable  >  default
 *
 * A recorded flag shadows its variable completely: the variable's
 * text is not even parsed.  Malformed text fails with a ConfigError
 * naming the flag or variable and echoing the text, with one
 * documented exception: an unknown RAMPAGE_AUDIT level warns once and
 * audits at 'boundaries' rather than silently running unaudited.
 * RAMPAGE_DEBUG is a row too, but its channel mask lives in
 * util/debug.cc (every RAMPAGE_DPRINTF reads it), so the row only
 * forwards --debug to setDebugChannels().
 *
 * README.md ("Run knobs") lists every row with its default and
 * accepted values; tests/test_knob_list.py keeps that list, the
 * golden harness and the CI scripts in step with this table.
 */

#ifndef RAMPAGE_CORE_RUN_SETTINGS_HH
#define RAMPAGE_CORE_RUN_SETTINGS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/fault_injection.hh"
#include "obs/obs_config.hh"

namespace rampage
{

/** Run scale: RAMPAGE_REFS / RAMPAGE_QUANTUM / RAMPAGE_FULL. */
struct ExperimentScale
{
    std::uint64_t refs = 24'000'000;
    std::uint64_t quantumRefs = 120'000;
};

/** Largest SweepRunner worker pool --jobs / RAMPAGE_JOBS accept. */
constexpr unsigned maxSweepJobs = 256;

/** Largest retry count --retries / RAMPAGE_RETRIES accept. */
constexpr unsigned maxSweepRetries = 16;

/** Every run knob, resolved (see the file comment for precedence). */
struct RunSettings
{
    ExperimentScale scale;
    /** Issue rates to sweep; the paper's 200 MHz to 4 GHz (§4.3). */
    std::vector<std::uint64_t> rates = {200'000'000ull, 500'000'000ull,
                                        1'000'000'000ull,
                                        2'000'000'000ull,
                                        4'000'000'000ull};
    /** SweepRunner worker threads. */
    unsigned jobs = 1;
    /** Cores per simulated hierarchy; 0 keeps the config's own. */
    unsigned cores = 0;
    /** Per-point wall-clock deadline; 0 = none. */
    double deadlineSeconds = 0;
    /** Retries for transiently failed sweep points. */
    unsigned retries = 0;
    /** Fork each sweep point into a child process. */
    bool isolate = false;
    AuditLevel auditLevel = AuditLevel::Off;
    /** Model-fault spec "kind[:seed]"; "" injects nothing. */
    std::string faultPlan;
    /** Runner fault (hang, crash, torn manifest line). */
    SweepFaultPlan sweepFault;
    ObsSettings obs;
};

/** One run knob. */
struct RunSettingRow
{
    /** benchMain flag ("--jobs"); nullptr when environment-only. */
    const char *flag;
    /** Environment variable; nullptr for the flag-only --json. */
    const char *env;
    /** Usage value hint ("<n>"); empty for a switch (--isolate). */
    std::string hint;
    /**
     * Parse `text` into `out`.  `origin` is the flag or variable the
     * text came from; errors name it.
     */
    void (*apply)(RunSettings &out, const char *origin,
                  const std::string &text);
    /**
     * False only for RAMPAGE_DEBUG, whose value lives outside the
     * record: the row forwards --debug and runSettings() skips it.
     */
    bool inRecord = true;
};

/** The table, in resolution order. */
const std::vector<RunSettingRow> &runSettingRows();

/**
 * Record a CLI value for `flag` (a switch row takes "1").  The text
 * is validated now, so a bad flag fails at the command line.
 * @throws ConfigError for a malformed value or an unknown flag.
 */
void applyRunFlag(const std::string &flag, const std::string &value);

/** The row for `flag`; nullptr when no row has it. */
const RunSettingRow *findRunFlag(const std::string &flag);

/** Forget every recorded flag (tests; a fresh command line). */
void clearRunFlags();

/** Resolve the record: recorded flag, else variable, else default. */
RunSettings runSettings();

/** "[--json <path>] [--debug <...>] ..." for every flag row. */
std::string runFlagUsage();

/**
 * The strict numeric parser for every CLI and environment value:
 * plain decimal digits only.  Signs and leading whitespace ("-5"
 * wraps and " 24" skips under bare strtoull), trailing junk ("24x"),
 * text with no digits ("abc", "") and out-of-range values all throw
 * a ConfigError naming `origin` and echoing the text.
 */
std::uint64_t parseUnsigned(const char *origin, const std::string &text);

/** parseUnsigned() that also rejects 0 (reference counts, sizes). */
std::uint64_t parsePositive(const char *origin, const std::string &text);

/**
 * parseUnsigned() for seconds: also takes a fraction (".5", "2.5"),
 * and the result must be finite ("nan", "inf" and "1e999" throw).
 */
double parseSeconds(const char *origin, const std::string &text);

} // namespace rampage

#endif // RAMPAGE_CORE_RUN_SETTINGS_HH
