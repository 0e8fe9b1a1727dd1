/**
 * @file
 * The per-CPU half of the core/memory seam: everything a single core
 * owns privately — its split L1 caches, its TLB with the per-stream
 * last-translation cache in front of it, and the scratch list of the
 * page-table words a TLB-miss walk touched.  A Hierarchy owns one CoreFrontend
 * per configured core (CommonConfig::cores) over one shared
 * MemoryBackend (src/core/memory_backend.hh); the AccessEngine
 * (src/core/access_engine.hh) runs the access sequence against the
 * hierarchy's *active* frontend, and every request the frontend makes
 * of the backend carries its CoreId through the MemoryPort.
 *
 * With cores == 1 the single frontend is exactly the state the
 * monolithic Hierarchy used to hold inline — same seeds, same
 * registration order, same statistics names — so single-core runs
 * stay bit-identical to the pre-split engine (the golden stdout and
 * the cores1 rows of SnapshotPin in tests/test_simulator.cc pin it).
 */

#ifndef RAMPAGE_CORE_CORE_FRONTEND_HH
#define RAMPAGE_CORE_CORE_FRONTEND_HH

#include <cstddef>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/config.hh"
#include "tlb/tlb.hh"
#include "trace/record.hh"
#include "util/types.hh"

namespace rampage
{

class StatsRegistry;

/**
 * The explicit core -> memory port: every backend request (L1 fill,
 * write-back, translation walk, fault service) is made on behalf of
 * the core this port names.  The backend uses it to attribute
 * residency (which cores may hold private copies of a frame) and to
 * serialize concurrent transfers on the shared bus.
 */
struct MemoryPort
{
    CoreId core = 0;
};

/** Most cores a hierarchy supports (residency masks are 64-bit). */
constexpr unsigned maxCores = 64;

/**
 * One CPU core's private state.  A plain aggregate: the AccessEngine
 * and the Hierarchy's policy hooks read and write it directly,
 * exactly as they did when the members lived inline in Hierarchy.
 */
struct CoreFrontend
{
    /**
     * @param cfg shared parameters (L1 geometry, TLB shape).
     * @param core this frontend's identity.  Core 0 uses the
     *        monolithic hierarchy's historical seeds (L1i 101,
     *        L1d 102, the TlbParams seed as configured) so cores=1
     *        is bit-identical to the pre-split engine; further cores
     *        derive disjoint deterministic seeds from their id.
     */
    CoreFrontend(const CommonConfig &cfg, CoreId core);

    /** Register l1i/l1d/tlb stats under `prefix` ("" or "coreN."). */
    void registerStats(StatsRegistry &reg, const std::string &prefix);

    CoreId id = 0;
    MemoryPort port; ///< carries `id` on every backend request

    SetAssocCache l1iCache;
    SetAssocCache l1dCache;
    Tlb tlbUnit;

    /**
     * Translation cache in front of the TLB: a small direct-mapped
     * array per reference stream, indexed by the low VPN bits.
     * Splitting instruction fetches from data references matters
     * because the two streams alternate pages nearly every
     * reference (a shared entry thrashes); the data stream
     * additionally hops across its working set, which the
     * direct-mapped array absorbs.  Each entry remembers a
     * (pid, vpn) -> frame translation plus the TLB slot that
     * produced it and the TLB generation it was captured under; it
     * is live exactly while that generation still matches, so any
     * TLB mutation — insert, invalidation on page replacement,
     * flush, corruption hooks — retires the whole cache
     * automatically.  A live entry replays its hit through
     * Tlb::recordHitAt(), a bit-exact replica of the full lookup it
     * short-circuits.
     *
     * Invariant ("tlb.trans_cache", audited by Hierarchy::auditState
     * and provable via ModelFault::TransCacheStale): while live, the
     * TLB holds a matching entry for (pid, vpn) with the same frame.
     * The context-switch trace additionally drops the cache
     * explicitly (the translating process changes).
     */
    struct TranslationCache
    {
        Pid pid = 0;
        std::uint64_t vpn = 0;
        std::uint64_t frame = 0;
        std::uint32_t slot = 0;  ///< TLB slot backing this entry
        std::uint64_t gen = 0;   ///< Tlb::generation() at capture
        bool valid = false;
    };
    /** Entries per stream; direct-mapped on vpn & (entries - 1). */
    static constexpr std::size_t transCacheEntries = 64;
    /** [0] data, [1] instruction. */
    TranslationCache transCache[2][transCacheEntries];
    bool transCacheOn = true;

    /** Drop the translation cache (see TranslationCache). */
    void
    transCacheInvalidate()
    {
        for (auto &stream : transCache)
            for (TranslationCache &tc : stream)
                tc.valid = false;
    }

    /** Page-table words a TLB-miss walk touched (reused per miss). */
    std::vector<Addr> probeScratch;
};

} // namespace rampage

#endif // RAMPAGE_CORE_CORE_FRONTEND_HH
