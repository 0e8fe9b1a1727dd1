#include "dram/disk.hh"

namespace rampage
{

Tick
Disk::readPs(std::uint64_t bytes) const
{
    double stream_ps = static_cast<double>(bytes) / bytesPerSecond *
                       static_cast<double>(psPerSec);
    return latencyPs + static_cast<Tick>(stream_ps + 0.5);
}

Tick
Disk::writePs(std::uint64_t bytes) const
{
    return readPs(bytes);
}

double
Disk::peakBandwidth() const
{
    return bytesPerSecond;
}

} // namespace rampage
