#include "digest.hh"

#include <cstring>

#include "core/cost_model.hh"

namespace perfbench
{

using rampage::StatsSnapshot;

namespace
{

class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void word(std::uint64_t v) { bytes(&v, sizeof v); }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** True when `name` is `base` or `coreN.<base>`. */
bool
matchesCoreName(const std::string &name, const std::string &base)
{
    if (name == base)
        return true;
    if (name.rfind("core", 0) != 0 || name.size() <= base.size() + 5)
        return false;
    std::size_t dot = name.find('.');
    if (dot == std::string::npos || dot == 4)
        return false;
    for (std::size_t i = 4; i < dot; ++i)
        if (name[i] < '0' || name[i] > '9')
            return false;
    return name.compare(dot + 1, std::string::npos, base) == 0;
}

} // namespace

std::uint64_t
statsDigest(const rampage::SimResult &result)
{
    Fnv fnv;
    for (const StatsSnapshot::Entry &e : result.stats.entries()) {
        fnv.bytes(e.name.data(), e.name.size());
        fnv.word(static_cast<std::uint64_t>(e.kind));
        fnv.word(e.counter);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.value, sizeof bits);
        fnv.word(bits);
        for (std::uint64_t b : e.buckets)
            fnv.word(b);
        fnv.word(e.samples);
        fnv.word(e.sum);
    }
    fnv.word(result.elapsedPs);
    return fnv.value();
}

std::uint64_t
sumCounter(const StatsSnapshot &stats, const std::string &name)
{
    std::uint64_t total = 0;
    for (const StatsSnapshot::Entry &e : stats.entries())
        if (e.kind == StatsSnapshot::Kind::Counter &&
            matchesCoreName(e.name, name))
            total += e.counter;
    return total;
}

std::uint64_t
sumHistogram(const StatsSnapshot &stats, const std::string &name)
{
    std::uint64_t total = 0;
    for (const StatsSnapshot::Entry &e : stats.entries())
        if (e.kind == StatsSnapshot::Kind::Histogram &&
            matchesCoreName(e.name, name))
            total += e.sum;
    return total;
}

std::string
checkResult(const rampage::SimResult &result, std::uint64_t max_refs,
            bool blocking)
{
    std::uint64_t refs = sumCounter(result.stats, "sim.refs");
    std::uint64_t trace = sumCounter(result.stats, "sim.trace_refs");
    std::uint64_t overhead = sumCounter(result.stats, "sim.overhead_refs");
    if (refs != trace + overhead)
        return "sim.refs != sim.trace_refs + sim.overhead_refs (" +
               std::to_string(refs) + " != " + std::to_string(trace) +
               " + " + std::to_string(overhead) + ")";
    if (trace != max_refs)
        return "sim.trace_refs " + std::to_string(trace) +
               " != reference budget " + std::to_string(max_refs);
    if (result.stats.find("sim.elapsed_ps") == nullptr ||
        result.stats.find("sim.elapsed_ps")->counter != result.elapsedPs)
        return "sim.elapsed_ps missing or != SimResult::elapsedPs";
    if (blocking &&
        rampage::totalTimePs(result.counts, result.issueHz) !=
            result.elapsedPs)
        return "elapsed_ps != event counts priced at the issue rate";
    return {};
}

} // namespace perfbench
