/**
 * @file
 * Component replays: host nanoseconds per call of one layer's public
 * operation, timed on the workload's own reference stream.
 *
 *  - L1 probe: SetAssocCache::access on split L1 I/D caches of the
 *    point's geometry.
 *  - Translation: Tlb::lookup on a TLB of the point's shape behind the
 *    engine's per-stream last-translation cache (a miss is followed by
 *    Tlb::insert, as a walk would fill it).
 *  - Page fault: PageStore::handleFault on a page store of the point's
 *    parameters, over enough references that replacement is active.
 *  - DRAM pricing: DramModel::readPs of the point's transfer size on
 *    the point's own DRAM model.
 *
 * The benchmark multiplies each cost by the run's own event count to
 * estimate the layer's share of Hierarchy::accessBatch time; what the
 * estimates leave over is reported as the unattributed remainder.
 */

#ifndef PERFBENCH_COMPONENTS_HH
#define PERFBENCH_COMPONENTS_HH

#include <cstdint>

#include "workloads.hh"

namespace perfbench
{

struct ComponentCosts
{
    double l1ProbeNs = 0;
    std::uint64_t l1Probes = 0; ///< calls timed (the base of l1ProbeNs)
    double tlbLookupNs = 0;     ///< per translation, cache front included
    std::uint64_t tlbLookups = 0;
    std::uint64_t tlbScans = 0; ///< translations that reached Tlb::lookup
    double faultNs = 0;         ///< 0 for a point without a page store
    std::uint64_t faults = 0;
    std::uint64_t faultDirtyVictims = 0; ///< dirty pages the faults evicted
    double dramPriceNs = 0;
    std::uint64_t dramPrices = 0;
};

/**
 * Time the four component replays for `point`.  `stream_refs`
 * references of the seeded workload feed the L1 and TLB replays;
 * `fault_refs` references (generated in chunks, not stored) drive the
 * page-store replay.
 */
ComponentCosts measureComponents(const PointSpec &point, std::uint64_t seed,
                                 std::uint64_t stream_refs,
                                 std::uint64_t fault_refs);

} // namespace perfbench

#endif // PERFBENCH_COMPONENTS_HH
