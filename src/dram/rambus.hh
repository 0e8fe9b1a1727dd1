/**
 * @file
 * Direct Rambus timing model (paper §3.3, §4.3).
 *
 * The paper's device: a 2-byte-wide channel clocked at 1.25 ns per
 * transfer beat, with 50 ns of latency before the first datum of a
 * transaction.  The headline results use the *non-pipelined* model
 * (each transaction pays the full 50 ns); the pipelined mode — listed
 * as future work in §6.3 — overlaps the access latency of consecutive
 * transactions so a queue of requests approaches the channel's peak
 * bandwidth (the paper quotes a theoretical 95 % of peak on 2-byte
 * units).
 */

#ifndef RAMPAGE_DRAM_RAMBUS_HH
#define RAMPAGE_DRAM_RAMBUS_HH

#include "dram/dram_model.hh"

namespace rampage
{

/** The settable shape of a Direct Rambus channel. */
struct RambusConfig
{
    /**
     * Parallel Rambus channels.  §3.3: "It is also possible to have
     * multiple Rambus channels to increase bandwidth, though latency
     * is not improved" — channels multiply the per-beat width, not
     * reduce the 50 ns access.
     */
    unsigned channels = 1;
    /**
     * Number of transactions whose access latency may overlap.  1
     * models the paper's headline (non-pipelined) configuration; >1
     * enables the §6.3 future-work pipelined mode.
     */
    unsigned pipelineDepth = 1;
};

/**
 * Direct Rambus channel.  readPs()/writePs() price a single isolated
 * transaction; burstPs() prices a back-to-back queue of transactions
 * under the configured pipeline depth.
 */
class DirectRambus : public DramModel
{
  public:
    /** Latency before the first datum of a transaction. */
    static constexpr Tick accessLatencyPs = 50 * psPerNs;
    /** Picoseconds per transfer beat. */
    static constexpr Tick beatPs = 1250;
    /** Bytes moved per beat (Direct Rambus: a 2-byte bus). */
    static constexpr std::uint64_t bytesPerBeat = 2;

    explicit DirectRambus(const RambusConfig &config = RambusConfig{});

    Tick readPs(std::uint64_t bytes) const override;
    Tick writePs(std::uint64_t bytes) const override;
    double peakBandwidth() const override;
    std::string name() const override;

    /** Time to stream `bytes` once the transaction is open. */
    Tick streamPs(std::uint64_t bytes) const;

    /**
     * Total time for `count` back-to-back transactions of `bytes`
     * each.  With pipelineDepth 1 this is count * readPs(bytes); with
     * a deeper pipeline the access latencies of up to depth-1 trailing
     * transactions hide behind the data streaming of earlier ones.
     */
    Tick burstPs(std::uint64_t bytes, std::uint64_t count) const;

    const RambusConfig &config() const { return cfg; }

  private:
    RambusConfig cfg;
};

} // namespace rampage

#endif // RAMPAGE_DRAM_RAMBUS_HH
