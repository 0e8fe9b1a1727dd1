#include "dram/rambus.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace rampage
{

DirectRambus::DirectRambus(const RambusConfig &config) : cfg(config)
{
    RAMPAGE_ASSERT(cfg.pipelineDepth > 0, "pipeline depth must be >= 1");
    RAMPAGE_ASSERT(cfg.channels > 0, "at least one channel required");
}

Tick
DirectRambus::streamPs(std::uint64_t bytes) const
{
    // Multiple channels stripe the transfer: beats run in parallel.
    return divCeil(bytes, bytesPerBeat * cfg.channels) * beatPs;
}

Tick
DirectRambus::readPs(std::uint64_t bytes) const
{
    return accessLatencyPs + streamPs(bytes);
}

Tick
DirectRambus::writePs(std::uint64_t bytes) const
{
    // The paper draws no read/write timing distinction (§4.3).
    return readPs(bytes);
}

double
DirectRambus::peakBandwidth() const
{
    return static_cast<double>(bytesPerBeat * cfg.channels) /
           (static_cast<double>(beatPs) / psPerSec);
}

std::string
DirectRambus::name() const
{
    return cfg.pipelineDepth > 1 ? "DirectRambus(pipelined)"
                                 : "DirectRambus";
}

Tick
DirectRambus::burstPs(std::uint64_t bytes, std::uint64_t count) const
{
    if (count == 0)
        return 0;
    if (cfg.pipelineDepth <= 1)
        return count * readPs(bytes);

    // With pipelining, a later transaction's access latency overlaps
    // the data beats of the transactions ahead of it, limited by the
    // channel occupancy: data beats serialize on the 2-byte bus, so
    // the channel is busy for count * streamPs(bytes) plus whatever
    // access latency could not be hidden behind earlier streaming.
    Tick stream = streamPs(bytes);
    Tick total_stream = count * stream;
    // The first transaction's latency is always exposed.  Each later
    // transaction hides min(latency, data already streaming ahead of
    // it).  With unbounded depth everything but the first latency
    // hides once stream*(k) >= latency; with bounded depth at most
    // depth-1 requests can be outstanding, capping the overlap window
    // to (depth-1)*stream per transaction.
    Tick overlap_window = static_cast<Tick>(cfg.pipelineDepth - 1) * stream;
    Tick exposed_per_txn = accessLatencyPs > overlap_window
                               ? accessLatencyPs - overlap_window
                               : 0;
    return accessLatencyPs + total_stream +
           (count - 1) * exposed_per_txn;
}

} // namespace rampage
