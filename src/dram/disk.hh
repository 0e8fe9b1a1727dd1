/**
 * @file
 * Disk timing model used only for the paper's Table 1 comparison
 * (§3.5): 10 ms latency, 40 MB/s streaming.  It exists to quantify the
 * paper's argument that DRAM shares disk's property of being far more
 * efficient at large transfer units.
 */

#ifndef RAMPAGE_DRAM_DISK_HH
#define RAMPAGE_DRAM_DISK_HH

#include "dram/dram_model.hh"

namespace rampage
{

/** Simple latency + streaming-rate disk. */
class Disk : public DramModel
{
  public:
    /** Positioning latency (paper: 10 ms). */
    static constexpr Tick latencyPs = 10 * psPerMs;
    /** Streaming rate in bytes per second (paper: 40 MB/s, decimal). */
    static constexpr double bytesPerSecond = 40e6;

    Tick readPs(std::uint64_t bytes) const override;
    Tick writePs(std::uint64_t bytes) const override;
    double peakBandwidth() const override;
    std::string name() const override { return "Disk"; }
};

} // namespace rampage

#endif // RAMPAGE_DRAM_DISK_HH
