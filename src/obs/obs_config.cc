#include "obs/obs_config.hh"

#include <atomic>
#include <cctype>

namespace rampage
{

namespace
{

thread_local std::string threadPointLabel;

/** Sequence for runs outside a labeled sweep point. */
std::atomic<std::uint64_t> runSequence{0};

} // namespace

void
setObsPointLabel(const std::string &label)
{
    threadPointLabel = label;
}

const std::string &
obsPointLabel()
{
    return threadPointLabel;
}

std::string
obsRunFilePath(const std::string &base, const char *suffix)
{
    std::string label = threadPointLabel;
    if (label.empty())
        label = "run" + std::to_string(
                            runSequence.fetch_add(1,
                                                  std::memory_order_relaxed));
    for (char &c : label) {
        bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '.' || c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    return base + "." + label + suffix;
}

} // namespace rampage
