/**
 * @file
 * The run-settings table (core/run_settings.hh), row by row: each
 * row's default, environment value, flag-beats-environment and
 * malformed-environment cases, a flag shadowing a malformed variable,
 * the pinned knob set, and the one strict numeric parser.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/run_settings.hh"
#include "run_env.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{
namespace
{

/** How one row shows in the resolved record. */
struct RowCase
{
    /** The row's variable, or its flag when it has none (--json). */
    const char *name;
    /** A valid variable value; nullptr when the row has no variable. */
    const char *envValue;
    /** A valid flag value; nullptr when the row has no flag. */
    const char *flagValue;
    /** A variable value the row rejects; nullptr when none is. */
    const char *malformed;
    /** Render the row's field(s) of the record. */
    std::string (*read)(const RunSettings &);
    const char *atDefault;
    const char *atEnv;
    const char *atFlag;
    /** What a malformed variable resolves to when the row is lenient. */
    const char *atMalformed = nullptr;
};

std::string
joined(const std::vector<std::uint64_t> &values)
{
    std::string out;
    for (std::uint64_t value : values)
        out += (out.empty() ? "" : ",") + std::to_string(value);
    return out;
}

using S = const RunSettings &;

const std::vector<RowCase> &
rowCases()
{
    static const std::vector<RowCase> cases = {
        {"RAMPAGE_FULL", "1", nullptr, nullptr,
         [](S s) {
             return std::to_string(s.scale.refs) + "/" +
                    std::to_string(s.scale.quantumRefs);
         },
         "24000000/120000", "1100000000/500000", nullptr},
        {"RAMPAGE_REFS", "5000", nullptr, "24x",
         [](S s) { return std::to_string(s.scale.refs); }, "24000000",
         "5000", nullptr},
        {"RAMPAGE_QUANTUM", "700", nullptr, "0",
         [](S s) { return std::to_string(s.scale.quantumRefs); },
         "120000", "700", nullptr},
        {"RAMPAGE_RATES", "250MHz,1GHz", nullptr, "garbage",
         [](S s) { return joined(s.rates); },
         "200000000,500000000,1000000000,2000000000,4000000000",
         "250000000,1000000000", nullptr},
        {"--json", nullptr, "out/fig.json", nullptr,
         [](S s) { return s.obs.intervalOutBase; }, "rampage", nullptr,
         "out/fig"},
        {"RAMPAGE_AUDIT", "paranoid", "boundaries", "bogus",
         [](S s) { return std::string(auditLevelName(s.auditLevel)); },
         "off", "paranoid", "boundaries", "boundaries"},
        {"RAMPAGE_INJECT_FAULT", "skew-cycles", "l1-tag-flip:3", "bogus",
         [](S s) { return s.faultPlan; }, "", "skew-cycles",
         "l1-tag-flip:3"},
        {"RAMPAGE_JOBS", "3", "8", "4x",
         [](S s) { return std::to_string(s.jobs); }, "1", "3", "8"},
        {"RAMPAGE_CORES", "2", "4", "abc",
         [](S s) { return std::to_string(s.cores); }, "0", "2", "4"},
        {"RAMPAGE_DEADLINE", "1.25", "2.5", "soon",
         [](S s) { return std::to_string(s.deadlineSeconds); },
         "0.000000", "1.250000", "2.500000"},
        {"RAMPAGE_RETRIES", "2", "5", "many",
         [](S s) { return std::to_string(s.retries); }, "0", "2", "5"},
        // A switch: the flag can only say 1, so the variable says 0.
        {"RAMPAGE_ISOLATE", "0", "1", "yes",
         [](S s) { return std::string(s.isolate ? "1" : "0"); }, "0",
         "0", "1"},
        {"RAMPAGE_SWEEP_FAULT", "hang@stuck", nullptr, "explode",
         [](S s) {
             return std::string(sweepFaultName(s.sweepFault.kind)) +
                    "@" + s.sweepFault.pointId;
         },
         "none@", "hang@stuck", nullptr},
        {"RAMPAGE_TRACE_OUT", "/tmp/a", "/tmp/b", nullptr,
         [](S s) {
             return s.obs.traceOutBase + "|" + s.obs.intervalOutBase;
         },
         "|rampage", "/tmp/a|/tmp/a", "/tmp/b|/tmp/b"},
        {"RAMPAGE_STATS_INTERVAL", "5000", "7000", "12junk",
         [](S s) { return std::to_string(s.obs.statsIntervalRefs); },
         "0", "5000", "7000"},
        {"RAMPAGE_TRACE_RING", "64", nullptr, "0",
         [](S s) { return std::to_string(s.obs.traceRingCapacity); },
         "262144", "64", nullptr},
    };
    return cases;
}

std::string
rowName(const RunSettingRow &row)
{
    return row.env ? row.env : row.flag;
}

/**
 * Every table variable unset and no flag recorded for the test's
 * lifetime (CI runs the suite with RAMPAGE_JOBS, RAMPAGE_CORES and
 * RAMPAGE_AUDIT set); both are restored on exit.
 */
class RunSettingsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        clearRunFlags();
        for (const RunSettingRow &row : runSettingRows())
            if (row.env)
                parked.push_back(
                    std::make_unique<ScopedEnv>(row.env, nullptr));
    }

    void TearDown() override
    {
        clearRunFlags();
        parked.clear();
        setQuiet(false);
    }

    /** The case for a record row; fails the test when there is none. */
    static const RowCase *
    caseFor(const RunSettingRow &row)
    {
        for (const RowCase &c : rowCases())
            if (rowName(row) == c.name)
                return &c;
        ADD_FAILURE() << "no test case for row " << rowName(row);
        return nullptr;
    }

    std::vector<std::unique_ptr<ScopedEnv>> parked;
};

TEST_F(RunSettingsTest, EveryRowDefaultEnvFlagAndMalformed)
{
    for (const RunSettingRow &row : runSettingRows()) {
        if (!row.inRecord)
            continue; // RAMPAGE_DEBUG: see DebugRowForwardsTheFlag
        const RowCase *c = caseFor(row);
        if (!c)
            continue;
        SCOPED_TRACE(c->name);
        ASSERT_EQ(row.env != nullptr, c->envValue != nullptr);
        ASSERT_EQ(row.flag != nullptr, c->flagValue != nullptr);

        EXPECT_EQ(c->read(runSettings()), c->atDefault);
        if (row.flag) {
            EXPECT_EQ(c->read(settingsWithFlag(row.flag, c->flagValue)),
                      c->atFlag);
        }
        if (!row.env)
            continue;

        ScopedEnv env(row.env, c->envValue);
        EXPECT_EQ(c->read(runSettings()), c->atEnv);
        if (row.flag) {
            applyRunFlag(row.flag, c->flagValue);
            EXPECT_EQ(c->read(runSettings()), c->atFlag);
            clearRunFlags();
        }

        if (!c->malformed)
            continue;
        ScopedEnv bad(row.env, c->malformed);
        if (c->atMalformed) {
            EXPECT_EQ(c->read(runSettings()), c->atMalformed);
            continue;
        }
        try {
            runSettings();
            ADD_FAILURE() << row.env << "=" << c->malformed
                          << " was accepted";
        } catch (const ConfigError &e) {
            std::string what = e.what();
            EXPECT_NE(what.find(row.env), std::string::npos) << what;
            EXPECT_NE(what.find(c->malformed), std::string::npos)
                << what;
        }
    }
}

// A recorded flag shadows its variable completely: a malformed
// variable is not even parsed.
TEST_F(RunSettingsTest, FlagShadowsMalformedVariable)
{
    for (const RunSettingRow &row : runSettingRows()) {
        if (!row.inRecord || !row.flag || !row.env)
            continue;
        const RowCase *c = caseFor(row);
        if (!c || !c->malformed)
            continue;
        SCOPED_TRACE(c->name);
        ScopedEnv bad(row.env, c->malformed);
        applyRunFlag(row.flag, c->flagValue);
        EXPECT_EQ(c->read(runSettings()), c->atFlag);
        clearRunFlags();
    }
}

// Flags are strict, --audit included (only the RAMPAGE_AUDIT variable
// is lenient), and fail when recorded, naming the flag.
TEST_F(RunSettingsTest, BadFlagValuesFailAtTheCommandLine)
{
    for (const RunSettingRow &row : runSettingRows()) {
        if (!row.inRecord || !row.flag || row.hint.empty())
            continue;
        const RowCase *c = caseFor(row);
        if (!c || !c->malformed)
            continue;
        SCOPED_TRACE(row.flag);
        try {
            applyRunFlag(row.flag, c->malformed);
            ADD_FAILURE() << row.flag << " " << c->malformed
                          << " was accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(row.flag),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(applyRunFlag("--no-such-flag", "1"), ConfigError);
}

TEST_F(RunSettingsTest, DebugRowForwardsTheFlag)
{
    EXPECT_THROW(applyRunFlag("--debug", "bogus"), ConfigError);
    applyRunFlag("--debug", "pager");
    EXPECT_TRUE(debugEnabled(DebugChannel::Pager));
    EXPECT_FALSE(debugEnabled(DebugChannel::Tlb));
    setDebugChannels("");
    EXPECT_FALSE(debugEnabled(DebugChannel::Pager));
    // util/debug.cc reads RAMPAGE_DEBUG itself (leniently), so the
    // record never parses it.
    ScopedEnv env("RAMPAGE_DEBUG", "bogus");
    EXPECT_NO_THROW(runSettings());
}

// No knob added, removed or renamed: the 16 variables and the flags
// benchMain accepts are pinned here and in README.md.
TEST_F(RunSettingsTest, KnobSetIsPinned)
{
    std::set<std::string> envs;
    std::vector<std::string> flags;
    for (const RunSettingRow &row : runSettingRows()) {
        if (row.env) {
            EXPECT_TRUE(envs.insert(row.env).second) << row.env;
        }
        if (row.flag)
            flags.push_back(row.flag);
    }
    EXPECT_EQ(envs,
              (std::set<std::string>{
                  "RAMPAGE_FULL", "RAMPAGE_REFS", "RAMPAGE_QUANTUM",
                  "RAMPAGE_RATES", "RAMPAGE_DEBUG", "RAMPAGE_AUDIT",
                  "RAMPAGE_INJECT_FAULT", "RAMPAGE_JOBS", "RAMPAGE_CORES",
                  "RAMPAGE_DEADLINE", "RAMPAGE_RETRIES", "RAMPAGE_ISOLATE",
                  "RAMPAGE_SWEEP_FAULT", "RAMPAGE_TRACE_OUT",
                  "RAMPAGE_STATS_INTERVAL", "RAMPAGE_TRACE_RING"}));
    EXPECT_EQ(flags,
              (std::vector<std::string>{
                  "--json", "--debug", "--audit", "--inject-fault",
                  "--jobs", "--cores", "--point-deadline", "--retries",
                  "--isolate", "--trace-out", "--stats-interval"}));
    EXPECT_EQ(runFlagUsage().rfind("[--json <path>] [--debug <", 0), 0u);
    EXPECT_NE(runFlagUsage().find("[--retries <n>] [--isolate] "
                                  "[--trace-out <base>]"),
              std::string::npos);
}

TEST(StrictNumber, UnsignedAcceptsOnlyPlainDigits)
{
    EXPECT_EQ(parseUnsigned("n", "0"), 0u);
    EXPECT_EQ(parseUnsigned("n", "18446744073709551615"),
              18446744073709551615ull);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "abc",
                            "1.5", "18446744073709551616"}) {
        try {
            parseUnsigned("--n", bad);
            ADD_FAILURE() << "'" << bad << "' was accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("--n"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(parsePositive("n", "7"), 7u);
    EXPECT_THROW(parsePositive("n", "0"), ConfigError);
}

TEST(StrictNumber, SecondsAreFiniteAndUnsigned)
{
    EXPECT_DOUBLE_EQ(parseSeconds("s", "0"), 0);
    EXPECT_DOUBLE_EQ(parseSeconds("s", "2.5"), 2.5);
    EXPECT_DOUBLE_EQ(parseSeconds("s", ".5"), 0.5);
    for (const char *bad : {"", "-1", "+1", "nan", "inf", "1e999",
                            "1.5x", "soon"})
        EXPECT_THROW(parseSeconds("s", bad), ConfigError) << bad;
}

} // namespace
} // namespace rampage
