#include "core/run_settings.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>

#include "core/core_frontend.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{

namespace
{

/** Flag -> text recorded by applyRunFlag(). */
std::map<std::string, std::string> &
recordedFlags()
{
    static std::map<std::string, std::string> flags;
    return flags;
}

/** First character of a number: a digit, or '.' when `fraction`. */
void
requireNumberStart(const char *origin, const std::string &text,
                   bool fraction)
{
    unsigned char first = text.empty() ? 0 : text[0];
    if (!std::isdigit(first) && !(fraction && first == '.'))
        throw ConfigError("%s: expected %s, got '%s'", origin,
                          fraction ? "a number of seconds"
                                   : "an unsigned integer",
                          text.c_str());
}

unsigned
parseInRange(const char *origin, const std::string &text,
             const char *what, unsigned lo, unsigned hi)
{
    std::uint64_t value = parseUnsigned(origin, text);
    if (value < lo || value > hi)
        throw ConfigError("%s: %s must be in [%u, %u], got '%s'",
                          origin, what, lo, hi, text.c_str());
    return static_cast<unsigned>(value);
}

/** Run `row.apply`; the error names where the text came from. */
void
applyRow(const RunSettingRow &row, const char *origin,
         const std::string &text, RunSettings &out)
{
    try {
        row.apply(out, origin, text);
    } catch (const ConfigError &e) {
        if (std::strncmp(e.what(), origin, std::strlen(origin)) == 0)
            throw;
        throw ConfigError("%s: %s", origin, e.what());
    }
}

} // namespace

std::uint64_t
parseUnsigned(const char *origin, const std::string &text)
{
    requireNumberStart(origin, text, false);
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE)
        throw ConfigError("%s: value '%s' is out of range", origin,
                          text.c_str());
    if (*end != '\0')
        throw ConfigError("%s: trailing junk after the number in '%s'",
                          origin, text.c_str());
    return value;
}

std::uint64_t
parsePositive(const char *origin, const std::string &text)
{
    std::uint64_t value = parseUnsigned(origin, text);
    if (value == 0)
        throw ConfigError("%s must be positive, got '%s'", origin,
                          text.c_str());
    return value;
}

double
parseSeconds(const char *origin, const std::string &text)
{
    requireNumberStart(origin, text, true);
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        throw ConfigError("%s: trailing junk after the number in '%s'",
                          origin, text.c_str());
    if (errno == ERANGE || !std::isfinite(value))
        throw ConfigError("%s: value '%s' is out of range", origin,
                          text.c_str());
    return value;
}

const std::vector<RunSettingRow> &
runSettingRows()
{
    using S = RunSettings;
    using T = const std::string &;
    static const std::vector<RunSettingRow> rows = {
        {nullptr, "RAMPAGE_FULL", "",
         [](S &out, const char *, T) {
             // Paper scale (§4.2): 1.1 G references, 500 K-reference
             // slices.  RAMPAGE_REFS / RAMPAGE_QUANTUM still win.
             out.scale.refs = 1'100'000'000;
             out.scale.quantumRefs = 500'000;
         }},
        {nullptr, "RAMPAGE_REFS", "",
         [](S &out, const char *origin, T text) {
             out.scale.refs = parsePositive(origin, text);
         }},
        {nullptr, "RAMPAGE_QUANTUM", "",
         [](S &out, const char *origin, T text) {
             out.scale.quantumRefs = parsePositive(origin, text);
         }},
        {nullptr, "RAMPAGE_RATES", "",
         [](S &out, const char *, T text) {
             out.rates.clear();
             std::size_t pos = 0;
             while (pos < text.size()) {
                 std::size_t comma = text.find(',', pos);
                 if (comma == std::string::npos)
                     comma = text.size();
                 out.rates.push_back(
                     parseFrequency(text.substr(pos, comma - pos)));
                 pos = comma + 1;
             }
         }},
        {"--json", nullptr, "<path>",
         [](S &out, const char *, T text) {
             // The report path also names interval files when tracing
             // is off: "out/fig.json" yields "out/fig.<point>...".
             std::string base = text;
             if (base.size() > 5 &&
                 base.compare(base.size() - 5, 5, ".json") == 0)
                 base.resize(base.size() - 5);
             out.obs.intervalOutBase = base;
         }},
        {"--debug", "RAMPAGE_DEBUG", "<" + debugChannelList() + "|all>",
         [](S &, const char *, T text) { setDebugChannels(text); },
         false},
        {"--audit", "RAMPAGE_AUDIT", "<off|boundaries|paranoid>",
         [](S &out, const char *origin, T text) {
             try {
                 out.auditLevel = parseAuditLevel(text);
             } catch (const ConfigError &) {
                 if (origin[0] == '-')
                     throw;
                 // The variable was set to request auditing; honouring
                 // the intent beats silently running unaudited.
                 warnOnce("%s: unknown level '%s', auditing at "
                          "'boundaries' (known: off, boundaries, "
                          "paranoid)",
                          origin, text.c_str());
                 out.auditLevel = AuditLevel::Boundaries;
             }
         }},
        {"--inject-fault", "RAMPAGE_INJECT_FAULT", "<kind[:seed]>",
         [](S &out, const char *, T text) {
             parseFaultPlan(text);
             out.faultPlan = text;
         }},
        {"--jobs", "RAMPAGE_JOBS", "<n>",
         [](S &out, const char *origin, T text) {
             out.jobs = parseInRange(origin, text, "worker count", 1,
                                     maxSweepJobs);
         }},
        {"--cores", "RAMPAGE_CORES", "<n>",
         [](S &out, const char *origin, T text) {
             out.cores = parseInRange(origin, text, "core count", 1,
                                      maxCores);
         }},
        {"--point-deadline", "RAMPAGE_DEADLINE", "<seconds>",
         [](S &out, const char *origin, T text) {
             out.deadlineSeconds = parseSeconds(origin, text);
             if (out.deadlineSeconds <= 0)
                 throw ConfigError("%s: deadline must be a positive "
                                   "finite number of seconds, got '%s'",
                                   origin, text.c_str());
         }},
        {"--retries", "RAMPAGE_RETRIES", "<n>",
         [](S &out, const char *origin, T text) {
             out.retries = parseInRange(origin, text, "retry count", 0,
                                        maxSweepRetries);
         }},
        {"--isolate", "RAMPAGE_ISOLATE", "",
         [](S &out, const char *origin, T text) {
             if (text != "0" && text != "1")
                 throw ConfigError("%s: expected 0 or 1, got '%s'",
                                   origin, text.c_str());
             out.isolate = text == "1";
         }},
        {nullptr, "RAMPAGE_SWEEP_FAULT", "",
         [](S &out, const char *, T text) {
             out.sweepFault = parseSweepFaultPlan(text);
         }},
        {"--trace-out", "RAMPAGE_TRACE_OUT", "<base>",
         [](S &out, const char *, T text) {
             out.obs.traceOutBase = text;
         }},
        {"--stats-interval", "RAMPAGE_STATS_INTERVAL", "<refs>",
         [](S &out, const char *origin, T text) {
             out.obs.statsIntervalRefs = parsePositive(origin, text);
         }},
        {nullptr, "RAMPAGE_TRACE_RING", "",
         [](S &out, const char *origin, T text) {
             out.obs.traceRingCapacity = parsePositive(origin, text);
         }},
    };
    return rows;
}

const RunSettingRow *
findRunFlag(const std::string &flag)
{
    for (const RunSettingRow &row : runSettingRows())
        if (row.flag && flag == row.flag)
            return &row;
    return nullptr;
}

void
applyRunFlag(const std::string &flag, const std::string &value)
{
    const RunSettingRow *row = findRunFlag(flag);
    if (!row)
        throw ConfigError("unknown run flag '%s'", flag.c_str());
    RunSettings scratch;
    applyRow(*row, row->flag, value, scratch);
    if (row->inRecord)
        recordedFlags()[row->flag] = value;
}

void
clearRunFlags()
{
    recordedFlags().clear();
}

RunSettings
runSettings()
{
    RunSettings out;
    const std::map<std::string, std::string> &flags = recordedFlags();
    for (const RunSettingRow &row : runSettingRows()) {
        if (!row.inRecord)
            continue;
        auto recorded = row.flag ? flags.find(row.flag) : flags.end();
        if (recorded != flags.end()) {
            applyRow(row, row.flag, recorded->second, out);
            continue;
        }
        const char *text = row.env ? std::getenv(row.env) : nullptr;
        if (text && *text)
            applyRow(row, row.env, text, out);
    }
    // Interval files follow the trace files, else the --json report,
    // else the working directory.
    if (!out.obs.traceOutBase.empty())
        out.obs.intervalOutBase = out.obs.traceOutBase;
    else if (out.obs.intervalOutBase.empty())
        out.obs.intervalOutBase = "rampage";
    return out;
}

std::string
runFlagUsage()
{
    std::string usage;
    for (const RunSettingRow &row : runSettingRows()) {
        if (!row.flag)
            continue;
        if (!usage.empty())
            usage += ' ';
        usage += std::string("[") + row.flag +
                 (row.hint.empty() ? "" : " " + row.hint) + "]";
    }
    return usage;
}

} // namespace rampage
