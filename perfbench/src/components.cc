#include "components.hh"

#include <vector>

#include "cache/cache.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "os/page_store.hh"
#include "spans.hh"
#include "tlb/tlb.hh"
#include "trace/benchmarks.hh"
#include "util/bitops.hh"

namespace perfbench
{

using namespace rampage;

namespace
{

/** References taken from one program before rotating to the next. */
constexpr std::size_t chunkRefs = 4096;

/**
 * Pull references from the seeded workload, rotating through its
 * programs a chunk at a time, and hand each chunk to `sink`.
 */
template <typename Sink>
void
streamWorkload(std::uint64_t seed, std::uint64_t refs, Sink &&sink)
{
    std::vector<std::unique_ptr<TraceSource>> sources = makeWorkload(seed);
    std::vector<MemRef> buf(chunkRefs);
    std::size_t current = 0;
    for (std::uint64_t done = 0; done < refs;) {
        std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunkRefs, refs - done));
        std::size_t got = sources[current]->fill(buf.data(), want);
        if (got < want)
            sources[current]->reset();
        sink(buf.data(), got);
        done += got;
        current = (current + 1) % sources.size();
    }
}

CacheParams
l1Params(const CommonConfig &cfg, const char *name)
{
    CacheParams params;
    params.name = name;
    params.sizeBytes = cfg.l1SizeBytes;
    params.blockBytes = cfg.l1BlockBytes;
    params.assoc = cfg.l1Assoc;
    params.repl = ReplPolicy::LRU;
    return params;
}

/** Bytes one translation covers (the TLB's page). */
std::uint64_t
translationPageBytes(const HierarchyConfig &config)
{
    return config.family == HierarchyConfig::Family::Paged
               ? config.paged.pager.pageBytes
               : config.common().dramPageBytes;
}

/** Bytes one DRAM transfer moves for this point. */
std::uint64_t
transferBytes(const HierarchyConfig &config)
{
    return config.family == HierarchyConfig::Family::Paged
               ? config.paged.pager.pageBytes
               : config.conventional.l2BlockBytes;
}

double
nsPer(double seconds, std::uint64_t calls)
{
    return calls ? seconds * 1e9 / static_cast<double>(calls) : 0;
}

} // namespace

ComponentCosts
measureComponents(const PointSpec &point, std::uint64_t seed,
                  std::uint64_t stream_refs, std::uint64_t fault_refs)
{
    ComponentCosts costs;
    const CommonConfig &common = point.config.common();

    std::vector<MemRef> stream;
    stream.reserve(static_cast<std::size_t>(stream_refs));
    streamWorkload(seed, stream_refs, [&](const MemRef *refs, std::size_t n) {
        stream.insert(stream.end(), refs, refs + n);
    });

    // L1 probe.
    {
        SetAssocCache l1i(l1Params(common, "L1i"));
        SetAssocCache l1d(l1Params(common, "L1d"));
        std::int64_t start = nowNs();
        for (const MemRef &ref : stream)
            (ref.isInstr() ? l1i : l1d).access(ref.vaddr, ref.isWrite());
        costs.l1Probes = stream.size();
        costs.l1ProbeNs =
            nsPer(secondsBetween(start, nowNs()), costs.l1Probes);
    }

    // Translation: the engine's per-stream last-translation cache in
    // front of Tlb::lookup (src/core/access_engine.hh), so the cost per
    // translation is what the hierarchy pays; a miss inserts without
    // the walk, which the handler trace accounts for.
    {
        struct LastTranslation
        {
            Pid pid = 0;
            std::uint64_t vpn = 0;
            std::uint32_t slot = 0;
            std::uint64_t gen = 0;
            bool valid = false;
        };
        constexpr std::size_t entries = 64;
        std::vector<LastTranslation> front(2 * entries);
        Tlb tlb(common.tlb);
        unsigned bits = floorLog2(translationPageBytes(point.config));
        std::int64_t start = nowNs();
        for (const MemRef &ref : stream) {
            std::uint64_t vpn = ref.vaddr >> bits;
            LastTranslation &tc =
                front[(ref.isInstr() ? entries : 0) + (vpn & (entries - 1))];
            if (tc.valid && tc.pid == ref.pid && tc.vpn == vpn &&
                tc.gen == tlb.generation()) {
                tlb.recordHitAt(tc.slot);
                continue;
            }
            ++costs.tlbScans;
            std::uint32_t slot = Tlb::noSlot;
            if (!tlb.lookup(ref.pid, vpn, slot).hit) {
                tlb.insert(ref.pid, vpn, vpn);
                slot = tlb.slotOf(ref.pid, vpn);
            }
            tc = {ref.pid, vpn, slot, tlb.generation(), slot != Tlb::noSlot};
        }
        costs.tlbLookups = stream.size();
        costs.tlbLookupNs =
            nsPer(secondsBetween(start, nowNs()), costs.tlbLookups);
    }

    // Page fault service.
    if (point.config.family == HierarchyConfig::Family::Paged) {
        PageStore store(point.config.paged.pager);
        unsigned bits = floorLog2(store.pageBytes());
        double fault_seconds = 0;
        streamWorkload(seed, fault_refs, [&](const MemRef *refs,
                                             std::size_t n) {
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t vpn = refs[i].vaddr >> bits;
                IptLookup found = store.lookup(refs[i].pid, vpn);
                std::uint64_t frame = found.frame;
                if (!found.found) {
                    std::int64_t start = nowNs();
                    PageFaultResult fault =
                        store.handleFault(refs[i].pid, vpn);
                    fault_seconds += secondsBetween(start, nowNs());
                    frame = fault.frame;
                    ++costs.faults;
                    for (const PageVictim &victim : fault.victims)
                        costs.faultDirtyVictims += victim.dirty;
                }
                store.touch(frame);
                if (refs[i].isWrite())
                    store.markDirty(frame);
            }
        });
        costs.faultNs = nsPer(fault_seconds, costs.faults);
    }

    // DRAM pricing, on the point's own model.
    {
        std::unique_ptr<Hierarchy> hier = makeHierarchy(point.config);
        const DramModel &dram = hier->memoryBackend().dram();
        const std::uint64_t bytes = transferBytes(point.config);
        const std::uint64_t calls = stream.size();
        Tick sink = 0;
        std::int64_t start = nowNs();
        for (std::uint64_t i = 0; i < calls; ++i)
            sink += dram.readPs(bytes);
        costs.dramPrices = calls;
        costs.dramPriceNs = nsPer(secondsBetween(start, nowNs()), calls);
        // Keep the priced total observable so the loop is not elided.
        volatile Tick keep = sink;
        (void)keep;
    }
    return costs;
}

} // namespace perfbench
