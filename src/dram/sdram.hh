/**
 * @file
 * SDRAM timing model (paper §3.3 comparison point): a wide synchronous
 * bus with an initial access delay, after which transfers proceed at
 * bus speed.  The paper's example — a 128-bit bus at 10 ns with 50 ns
 * initial latency — delivers the same 1.6 GB/s peak as Direct Rambus.
 */

#ifndef RAMPAGE_DRAM_SDRAM_HH
#define RAMPAGE_DRAM_SDRAM_HH

#include "dram/dram_model.hh"

namespace rampage
{

/** Wide synchronous DRAM channel. */
class Sdram : public DramModel
{
  public:
    /** Initial access delay (paper example: 50 ns). */
    static constexpr Tick accessLatencyPs = 50 * psPerNs;
    /** Bus cycle time (paper example: 10 ns). */
    static constexpr Tick busCyclePs = 10 * psPerNs;
    /** Bus width in bytes (paper example: 128 bits = 16 bytes). */
    static constexpr std::uint64_t busBytes = 16;

    Tick readPs(std::uint64_t bytes) const override;
    Tick writePs(std::uint64_t bytes) const override;
    double peakBandwidth() const override;
    std::string name() const override { return "SDRAM"; }
};

} // namespace rampage

#endif // RAMPAGE_DRAM_SDRAM_HH
