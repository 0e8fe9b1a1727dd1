/**
 * @file
 * Test helpers for the run-settings table (core/run_settings.hh):
 * scoped environment variables and one-flag resolution.
 */

#ifndef RAMPAGE_TESTS_RUN_ENV_HH
#define RAMPAGE_TESTS_RUN_ENV_HH

#include <cstdlib>
#include <string>

#include "core/run_settings.hh"

namespace rampage
{

/** RAII environment-variable override; a null value unsets it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : varName(name)
    {
        const char *old = std::getenv(name);
        hadOld = old != nullptr;
        if (hadOld)
            oldValue = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(varName.c_str(), oldValue.c_str(), 1);
        else
            ::unsetenv(varName.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string varName;
    std::string oldValue;
    bool hadOld;
};

/** runSettings() with `flag` recorded as `value` and no other flag. */
inline RunSettings
settingsWithFlag(const char *flag, const std::string &value)
{
    clearRunFlags();
    applyRunFlag(flag, value);
    RunSettings settings = runSettings();
    clearRunFlags();
    return settings;
}

} // namespace rampage

#endif // RAMPAGE_TESTS_RUN_ENV_HH
