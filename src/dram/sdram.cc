#include "dram/sdram.hh"

#include "util/bitops.hh"

namespace rampage
{

Tick
Sdram::readPs(std::uint64_t bytes) const
{
    return accessLatencyPs + divCeil(bytes, busBytes) * busCyclePs;
}

Tick
Sdram::writePs(std::uint64_t bytes) const
{
    return readPs(bytes);
}

double
Sdram::peakBandwidth() const
{
    return static_cast<double>(busBytes) /
           (static_cast<double>(busCyclePs) / psPerSec);
}

} // namespace rampage
