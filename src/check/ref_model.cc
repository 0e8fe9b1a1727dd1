#include "check/ref_model.hh"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/factory.hh"
#include "os/inverted_page_table.hh"
#include "trace/benchmarks.hh"
#include "trace/handlers.hh"
#include "trace/source.hh"
#include "util/bitops.hh"
#include "util/error.hh"
#include "util/random.hh"

namespace rampage
{

namespace
{

// ===================================================================
// Replica components.  These re-implement the *functional* behaviour
// of the engine's caches, TLB and pager from their specifications —
// including replacement-state details (stamp updates, hand motion,
// RNG draws) that determine which counters tick.  They deliberately
// share no code with src/cache, src/tlb or src/os; the shared pieces
// (Rng, HandlerTraces, makeWorkload, InvertedPageTable) are inputs to
// both models, as documented in ref_model.hh.
// ===================================================================

// ------------------------------------------------------------ caches

struct RefCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t invalidations = 0;
};

/** Functional set-associative write-back cache (the L1 replica). */
class RefCache
{
  public:
    RefCache(std::uint64_t size_bytes, std::uint64_t block_bytes,
             unsigned assoc, ReplPolicy repl, std::uint64_t seed)
        : repl(repl), rng(seed)
    {
        std::uint64_t blocks = size_bytes / block_bytes;
        nWays = assoc == 0 ? static_cast<unsigned>(blocks) : assoc;
        nSets = blocks / nWays;
        blockBits = floorLog2(block_bytes);
        setBits = floorLog2(nSets);
        lines.assign(nSets * nWays, Line{});
    }

    struct AccessResult
    {
        bool hit = false;
        bool victimValid = false;
        bool victimDirty = false;
        Addr victimAddr = 0;
    };

    AccessResult
    access(Addr addr, bool is_write)
    {
        AccessResult result;
        std::uint64_t set = (addr >> blockBits) & (nSets - 1);
        Addr tag = addr >> blockBits >> setBits;
        Line *base = &lines[set * nWays];

        ++useCounter;
        for (unsigned w = 0; w < nWays; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                result.hit = true;
                if (is_write)
                    line.dirty = true;
                if (repl == ReplPolicy::LRU)
                    line.stamp = useCounter;
                ++stat.hits;
                return result;
            }
        }

        ++stat.misses;
        unsigned way = pickVictim(base);
        Line &line = base[way];
        if (line.valid) {
            result.victimValid = true;
            result.victimDirty = line.dirty;
            result.victimAddr = ((line.tag << setBits) | set)
                                << blockBits;
            ++stat.evictions;
            if (line.dirty)
                ++stat.dirtyEvictions;
        }
        line.valid = true;
        line.dirty = is_write;
        line.tag = tag;
        line.stamp = useCounter;
        return result;
    }

    struct InvalidateResult
    {
        bool present = false;
        bool dirty = false;
    };

    InvalidateResult
    invalidate(Addr addr)
    {
        InvalidateResult result;
        if (Line *line = findLine(addr)) {
            result.present = true;
            result.dirty = line->dirty;
            line->valid = false;
            line->dirty = false;
            ++stat.invalidations;
        }
        return result;
    }

    const RefCacheStats &stats() const { return stat; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t stamp = 0;
    };

    Line *
    findLine(Addr addr)
    {
        std::uint64_t set = (addr >> blockBits) & (nSets - 1);
        Addr tag = addr >> blockBits >> setBits;
        Line *base = &lines[set * nWays];
        for (unsigned w = 0; w < nWays; ++w)
            if (base[w].valid && base[w].tag == tag)
                return &base[w];
        return nullptr;
    }

    unsigned
    pickVictim(Line *base)
    {
        for (unsigned w = 0; w < nWays; ++w)
            if (!base[w].valid)
                return w;
        if (repl == ReplPolicy::Random)
            return static_cast<unsigned>(rng.below(nWays));
        unsigned victim = 0; // LRU and FIFO: oldest stamp
        for (unsigned w = 1; w < nWays; ++w)
            if (base[w].stamp < base[victim].stamp)
                victim = w;
        return victim;
    }

    ReplPolicy repl;
    Rng rng;
    unsigned nWays;
    std::uint64_t nSets;
    unsigned blockBits;
    unsigned setBits;
    std::uint64_t useCounter = 0;
    std::vector<Line> lines;
    RefCacheStats stat;
};

// --------------------------------------------------------------- TLB

struct RefTlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;
};

/** Functional TLB replica (set-assoc, LRU or seeded-random victim). */
class RefTlb
{
  public:
    explicit RefTlb(const TlbParams &params)
        : lru(params.lruReplacement), rng(params.seed)
    {
        nWays = params.assoc == 0 ? params.entries : params.assoc;
        nSets = params.entries / nWays;
        entries.assign(params.entries, Entry{});
    }

    /** @retval true hit; miss otherwise (the frame is out-param). */
    bool
    lookup(Pid pid, std::uint64_t vpn, std::uint64_t &frame_out)
    {
        ++useCounter;
        if (Entry *entry = find(pid, vpn)) {
            ++stat.hits;
            if (lru)
                entry->stamp = useCounter;
            frame_out = entry->frame;
            return true;
        }
        ++stat.misses;
        return false;
    }

    void
    insert(Pid pid, std::uint64_t vpn, std::uint64_t frame)
    {
        ++useCounter;
        if (Entry *entry = find(pid, vpn)) {
            entry->frame = frame;
            entry->stamp = useCounter;
            return;
        }
        Entry *base = &entries[setOf(pid, vpn) * nWays];
        Entry *slot = nullptr;
        for (unsigned w = 0; w < nWays; ++w) {
            if (!base[w].valid) {
                slot = &base[w];
                break;
            }
        }
        if (!slot) {
            if (lru) {
                slot = base;
                for (unsigned w = 1; w < nWays; ++w)
                    if (base[w].stamp < slot->stamp)
                        slot = &base[w];
            } else {
                slot = &base[rng.below(nWays)];
            }
        }
        slot->valid = true;
        slot->pid = pid;
        slot->vpn = vpn;
        slot->frame = frame;
        slot->stamp = useCounter;
    }

    void
    invalidate(Pid pid, std::uint64_t vpn)
    {
        if (Entry *entry = find(pid, vpn)) {
            entry->valid = false;
            ++stat.flushes;
        }
    }

    const RefTlbStats &stats() const { return stat; }

  private:
    struct Entry
    {
        bool valid = false;
        Pid pid = 0;
        std::uint64_t vpn = 0;
        std::uint64_t frame = 0;
        std::uint64_t stamp = 0;
    };

    std::uint64_t
    setOf(Pid pid, std::uint64_t vpn) const
    {
        std::uint64_t key = vpn ^ (static_cast<std::uint64_t>(pid) << 13);
        return key & (nSets - 1);
    }

    Entry *
    find(Pid pid, std::uint64_t vpn)
    {
        Entry *base = &entries[setOf(pid, vpn) * nWays];
        for (unsigned w = 0; w < nWays; ++w) {
            Entry &entry = base[w];
            if (entry.valid && entry.pid == pid && entry.vpn == vpn)
                return &entry;
        }
        return nullptr;
    }

    bool lru;
    Rng rng;
    unsigned nWays;
    unsigned nSets;
    std::uint64_t useCounter = 0;
    std::vector<Entry> entries;
    RefTlbStats stat;
};

// -------------------------------------------- page replacement (uniform)

/** All five uniform-mode replacement policies in one replica. */
class RefPageRepl
{
  public:
    RefPageRepl(PageReplKind kind, std::uint64_t frames,
                std::uint64_t first_evictable, std::uint64_t seed,
                std::uint64_t standby_pages)
        : kind(kind), nFrames(frames), firstEvictable(first_evictable),
          rng(seed), standbyTarget(standby_pages),
          hand(first_evictable)
    {
        referenced.assign(frames, false);
        onStandby.assign(frames, false);
        seqTable.assign(frames, 0);
    }

    void
    touch(std::uint64_t frame)
    {
        switch (kind) {
          case PageReplKind::Clock:
            referenced[frame] = true;
            break;
          case PageReplKind::Lru:
            seqTable[frame] = ++seq;
            break;
          case PageReplKind::Standby:
            referenced[frame] = true;
            if (onStandby[frame]) {
                onStandby[frame] = false;
                for (auto it = standby.begin(); it != standby.end();
                     ++it) {
                    if (*it == frame) {
                        standby.erase(it);
                        break;
                    }
                }
            }
            break;
          case PageReplKind::Fifo:
          case PageReplKind::Random:
            break;
        }
    }

    void
    fill(std::uint64_t frame)
    {
        switch (kind) {
          case PageReplKind::Clock:
          case PageReplKind::Standby:
            referenced[frame] = true;
            break;
          case PageReplKind::Fifo:
          case PageReplKind::Lru:
            seqTable[frame] = ++seq;
            break;
          case PageReplKind::Random:
            break;
        }
    }

    std::uint64_t
    pickVictim()
    {
        switch (kind) {
          case PageReplKind::Clock:
            return clockScan();
          case PageReplKind::Fifo:
          case PageReplKind::Lru: {
            std::uint64_t victim = firstEvictable;
            for (std::uint64_t f = firstEvictable + 1; f < nFrames; ++f)
                if (seqTable[f] < seqTable[victim])
                    victim = f;
            return victim;
          }
          case PageReplKind::Random:
            return firstEvictable + rng.below(nFrames - firstEvictable);
          case PageReplKind::Standby: {
            while (standby.size() < standbyTarget + 1) {
                std::uint64_t nominee = standbyScan();
                standby.push_back(nominee);
                onStandby[nominee] = true;
            }
            std::uint64_t victim = standby.front();
            standby.pop_front();
            onStandby[victim] = false;
            return victim;
          }
        }
        throw InternalError("oracle: unreachable replacement kind");
    }

  private:
    std::uint64_t
    clockScan()
    {
        std::uint64_t evictable = nFrames - firstEvictable;
        for (std::uint64_t step = 0; step < 2 * evictable + 1; ++step) {
            std::uint64_t frame = hand;
            hand = hand + 1 >= nFrames ? firstEvictable : hand + 1;
            if (referenced[frame])
                referenced[frame] = false;
            else
                return frame;
        }
        throw InternalError("oracle: clock hand found no victim");
    }

    std::uint64_t
    standbyScan()
    {
        std::uint64_t evictable = nFrames - firstEvictable;
        for (std::uint64_t step = 0; step < 2 * evictable + 1; ++step) {
            std::uint64_t frame = hand;
            hand = hand + 1 >= nFrames ? firstEvictable : hand + 1;
            if (onStandby[frame])
                continue;
            if (referenced[frame])
                referenced[frame] = false;
            else
                return frame;
        }
        throw InternalError("oracle: standby clock nominated nothing");
    }

    PageReplKind kind;
    std::uint64_t nFrames;
    std::uint64_t firstEvictable;
    Rng rng;
    std::uint64_t standbyTarget;
    std::uint64_t hand;
    std::vector<bool> referenced;
    std::vector<bool> onStandby;
    std::deque<std::uint64_t> standby;
    std::vector<std::uint64_t> seqTable; ///< FIFO fill / LRU use seq
    std::uint64_t seq = 0;
};

// ------------------------------------------------------------- pager

struct RefVictim
{
    Pid pid = 0;
    std::uint64_t vpn = 0;
    std::uint64_t startFrame = 0;
    std::uint64_t bytes = 0;
    bool dirty = false;
};

struct RefFault
{
    std::uint64_t frame = 0;
    std::vector<RefVictim> victims;
    std::vector<Addr> probes;
};

struct RefPagerStats
{
    std::uint64_t faults = 0;
    std::uint64_t dirtyWritebacks = 0;
    std::uint64_t coldFills = 0;
    std::uint64_t victimsEvicted = 0;
};

/**
 * Functional page-store replica: uniform and per-pid policies, the
 * same capacity accounting, cold-fill and victim-selection order, and
 * the same table-probe synthesis (the probes feed HandlerTraces, so
 * they shape the overhead reference stream both models consume).
 * Holds its own InvertedPageTable instance — same insert/remove
 * sequence in, same probe addresses out.
 */
class RefPager
{
  public:
    explicit RefPager(const PageStoreParams &params)
        : prm(normalized(params))
    {
        std::uint64_t blocks = prm.baseSramBytes / prm.pageBytes;
        std::uint64_t bonus = blocks * prm.tagBytesPerBlock;
        std::uint64_t total_bytes =
            prm.baseSramBytes +
            alignDown(bonus, floorLog2(prm.pageBytes));
        nFrames = total_bytes / prm.pageBytes;

        tableVbase = osVirtBase + prm.osFixedBytes;
        ipt = std::make_unique<InvertedPageTable>(nFrames, tableVbase);
        if (uniform()) {
            nOsFrames = divCeil(prm.osFixedBytes + ipt->tableBytes(),
                                prm.pageBytes);
            repl = std::make_unique<RefPageRepl>(
                prm.repl, nFrames, nOsFrames, prm.seed,
                prm.standbyPages);
        } else {
            std::uint64_t table_bytes =
                nFrames * 20 + (nFrames / 4) * 8;
            nOsFrames = divCeil(prm.osFixedBytes + table_bytes,
                                prm.pageBytes);
            frameStart.assign(nFrames, noFrame);
            refd.assign(nFrames, false);
            hand = nOsFrames;
        }
        dirty.assign(nFrames, false);
        nextFreeFrame = nOsFrames;
    }

    bool uniform() const { return prm.defaultPageBytes == 0; }
    std::uint64_t frameBytes() const { return prm.pageBytes; }

    std::uint64_t
    pageBytes(Pid pid) const
    {
        if (uniform())
            return prm.pageBytes;
        auto it = prm.pageBytesByPid.find(pid);
        return it == prm.pageBytesByPid.end() ? prm.defaultPageBytes
                                              : it->second;
    }

    std::uint64_t pageFrames(Pid pid) const
    {
        return pageBytes(pid) / prm.pageBytes;
    }

    bool
    lookup(Pid pid, std::uint64_t vpn, std::vector<Addr> &probes,
           std::uint64_t &frame_out) const
    {
        IptLookup walk;
        if (uniform()) {
            walk = ipt->lookup(pid, vpn, &probes);
        } else {
            probes.push_back(probeAddr(pid, vpn));
            probes.push_back(probeAddr(pid, vpn ^ 0x5555));
            walk = ipt->lookup(pid, vpn, nullptr);
        }
        frame_out = walk.frame;
        return walk.found;
    }

    void
    touch(std::uint64_t frame)
    {
        if (uniform()) {
            repl->touch(frame);
            return;
        }
        std::uint64_t start = frameStart[frame];
        if (start != noFrame)
            refd[start] = true;
    }

    void
    markDirty(std::uint64_t frame)
    {
        if (uniform()) {
            dirty[frame] = true;
            return;
        }
        std::uint64_t start = frameStart[frame];
        if (start != noFrame)
            dirty[start] = true;
    }

    RefFault
    handleFault(Pid pid, std::uint64_t vpn)
    {
        if (uniform())
            return handleFaultUniform(pid, vpn);
        return handleFaultPerPid(pid, vpn);
    }

    Addr
    physAddr(std::uint64_t frame, Addr offset) const
    {
        return frame * prm.pageBytes + offset;
    }

    Addr
    osPhysAddr(Addr os_vaddr) const
    {
        return os_vaddr - osVirtBase;
    }

    const RefPagerStats &stats() const { return stat; }

  private:
    static PageStoreParams
    normalized(PageStoreParams params)
    {
        if (params.defaultPageBytes == 0 ||
            params.defaultPageBytes != params.pageBytes)
            return params;
        for (const auto &[pid, bytes] : params.pageBytesByPid) {
            (void)pid;
            if (bytes != params.pageBytes)
                return params;
        }
        params.defaultPageBytes = 0;
        params.pageBytesByPid.clear();
        return params;
    }

    Addr
    probeAddr(Pid pid, std::uint64_t vpn) const
    {
        std::uint64_t key =
            (static_cast<std::uint64_t>(pid) << 44) ^ vpn;
        std::uint64_t mix = key * 0x9e3779b97f4a7c15ull;
        mix ^= mix >> 31;
        std::uint64_t span = nFrames * 20;
        return tableVbase + (mix % span) / 20 * 20;
    }

    RefFault
    handleFaultUniform(Pid pid, std::uint64_t vpn)
    {
        RefFault result;
        ++stat.faults;
        ipt->lookup(pid, vpn, &result.probes);

        std::uint64_t frame;
        if (nextFreeFrame < nFrames) {
            frame = nextFreeFrame++;
            ++stat.coldFills;
        } else {
            frame = repl->pickVictim();
        }

        if (ipt->mapped(frame)) {
            RefVictim victim;
            victim.pid = ipt->framePid(frame);
            victim.vpn = ipt->frameVpn(frame);
            victim.startFrame = frame;
            victim.bytes = prm.pageBytes;
            victim.dirty = dirty[frame];
            if (dirty[frame])
                ++stat.dirtyWritebacks;
            result.probes.push_back(ipt->entryAddr(frame));
            ipt->remove(frame);
            result.victims.push_back(victim);
        }

        dirty[frame] = false;
        ipt->insert(frame, pid, vpn);
        repl->fill(frame);
        result.probes.push_back(ipt->entryAddr(frame));
        result.frame = frame;
        return result;
    }

    RefFault
    handleFaultPerPid(Pid pid, std::uint64_t vpn)
    {
        RefFault result;
        ++stat.faults;
        result.probes.push_back(probeAddr(pid, vpn));

        std::uint64_t k = pageFrames(pid);
        std::uint64_t start;

        std::uint64_t aligned_next = (nextFreeFrame + k - 1) / k * k;
        if (aligned_next + k <= nFrames) {
            start = aligned_next;
            nextFreeFrame = aligned_next + k;
        } else {
            std::uint64_t first_window = divCeil(nOsFrames, k) * k;
            if (first_window + k > nFrames)
                throw ConfigError(
                    "oracle: page size %llu too large for the "
                    "evictable SRAM",
                    static_cast<unsigned long long>(k * prm.pageBytes));
            if (hand < first_window || hand + k > nFrames)
                hand = first_window;
            hand = hand / k * k;

            std::uint64_t windows = (nFrames - first_window) / k;
            std::uint64_t chosen = first_window;
            bool found = false;
            for (std::uint64_t step = 0; step < 2 * windows + 1;
                 ++step) {
                std::uint64_t w = hand;
                hand += k;
                if (hand + k > nFrames)
                    hand = first_window;

                bool referenced = false;
                for (std::uint64_t f = w; f < w + k; ++f) {
                    std::uint64_t s = frameStart[f];
                    if (s != noFrame && refd[s])
                        referenced = true;
                }
                if (referenced) {
                    for (std::uint64_t f = w; f < w + k; ++f) {
                        std::uint64_t s = frameStart[f];
                        if (s != noFrame)
                            refd[s] = false;
                    }
                } else {
                    chosen = w;
                    found = true;
                    break;
                }
            }
            if (!found)
                throw InternalError(
                    "oracle: window clock found no victim window");
            evictWindow(chosen, k, result);
            start = chosen;
        }

        ipt->insert(start, pid, vpn);
        for (std::uint64_t f = start; f < start + k; ++f)
            frameStart[f] = start;
        dirty[start] = false;
        refd[start] = true;

        result.probes.push_back(probeAddr(pid, vpn));
        result.frame = start;
        return result;
    }

    void
    evictWindow(std::uint64_t start, std::uint64_t frames,
                RefFault &result)
    {
        for (std::uint64_t f = start; f < start + frames; ++f) {
            std::uint64_t s = frameStart[f];
            if (s == noFrame)
                continue;
            Pid vpid = ipt->framePid(s);
            std::uint64_t vvpn = ipt->frameVpn(s);
            std::uint64_t k = pageFrames(vpid);
            RefVictim victim;
            victim.pid = vpid;
            victim.vpn = vvpn;
            victim.startFrame = s;
            victim.bytes = k * prm.pageBytes;
            victim.dirty = dirty[s];
            result.victims.push_back(victim);
            result.probes.push_back(probeAddr(vpid, vvpn));
            if (dirty[s])
                ++stat.dirtyWritebacks;
            ++stat.victimsEvicted;
            for (std::uint64_t g = s; g < s + k; ++g)
                frameStart[g] = noFrame;
            ipt->remove(s);
            dirty[s] = false;
            refd[s] = false;
        }
    }

    static constexpr std::uint64_t noFrame = ~std::uint64_t{0};

    PageStoreParams prm;
    std::uint64_t nFrames;
    std::uint64_t nOsFrames;
    Addr tableVbase;
    std::unique_ptr<InvertedPageTable> ipt;
    std::unique_ptr<RefPageRepl> repl;
    std::vector<bool> dirty;
    std::uint64_t nextFreeFrame;
    std::vector<std::uint64_t> frameStart;
    std::vector<bool> refd;
    std::uint64_t hand = 0;
    RefPagerStats stat;
};

// ----------------------------------------- full paged-system replay

/** The functional counters both models must agree on. */
struct RefCounts
{
    std::uint64_t refs = 0;
    std::uint64_t traceRefs = 0;
    std::uint64_t overheadRefs = 0;
    std::uint64_t instrFetches = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1Writebacks = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbMissOverheadRefs = 0;
    std::uint64_t faultOverheadRefs = 0;
    std::uint64_t inclusionProbes = 0;
    std::uint64_t inclusionWritebacks = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
};

enum class RefOverheadKind
{
    TlbMiss,
    PageFault,
    ContextSwitch,
};

/**
 * Functional replay of a RAMpage (paged, blocking) run: the same
 * reference stream through the replica components, mirroring the
 * engine's access sequencing exactly — translation, handler
 * interleaving, fault service, inclusion flushes, DRAM transaction
 * counting — minus every timing charge.
 */
class RefPagedSystem
{
  public:
    explicit RefPagedSystem(const PagedConfig &config)
        : cfg(config.common),
          l1i(cfg.l1SizeBytes, cfg.l1BlockBytes, cfg.l1Assoc,
              ReplPolicy::LRU, 101),
          l1d(cfg.l1SizeBytes, cfg.l1BlockBytes, cfg.l1Assoc,
              ReplPolicy::LRU, 102),
          tlb(cfg.tlb),
          pager(config.pager)
    {
    }

    void
    access(const MemRef &ref)
    {
        ++evt.refs;
        ++evt.traceRefs;

        Addr paddr;
        if (ref.pid == osPid) {
            paddr = pager.osPhysAddr(ref.vaddr);
        } else {
            // The engine's last-translation fast path
            // (core/access_engine.hh) only short-circuits a lookup
            // that would hit — same frame, same tlb.hits count — so
            // this replica deliberately models a plain lookup per
            // reference and the oracle comparison stays exact.
            unsigned page_bits = floorLog2(pager.pageBytes(ref.pid));
            std::uint64_t vpn = ref.vaddr >> page_bits;
            std::uint64_t frame = 0;
            if (!tlb.lookup(ref.pid, vpn, frame)) {
                ++evt.tlbMisses;
                probeScratch.clear();
                std::uint64_t walked = 0;
                bool resident =
                    pager.lookup(ref.pid, vpn, probeScratch, walked);
                handlerScratch.clear();
                handlers.tlbMiss(handlerScratch, probeScratch);
                runHandlerRefs(RefOverheadKind::TlbMiss);

                frame = resident ? walked
                                 : servicePageFault(ref.pid, vpn);
                tlb.insert(ref.pid, vpn, frame);
            }
            pager.touch(frame); // framePhysAddr touches before use
            paddr = pager.physAddr(frame,
                                   lowBits(ref.vaddr, page_bits));
        }
        cachedAccess(ref.isInstr(), ref.isWrite(), paddr);
    }

    void
    runContextSwitchTrace()
    {
        handlerScratch.clear();
        handlers.contextSwitch(handlerScratch);
        ++evt.contextSwitches;
        runHandlerRefs(RefOverheadKind::ContextSwitch);
    }

    const RefCounts &counts() const { return evt; }
    const RefCacheStats &l1iStats() const { return l1i.stats(); }
    const RefCacheStats &l1dStats() const { return l1d.stats(); }
    const RefTlbStats &tlbStats() const { return tlb.stats(); }
    const RefPagerStats &pagerStats() const { return pager.stats(); }

  private:
    void
    cachedAccess(bool is_fetch, bool is_write, Addr paddr)
    {
        if (is_fetch)
            ++evt.instrFetches;
        RefCache &l1 = is_fetch ? l1i : l1d;
        RefCache::AccessResult res =
            l1.access(paddr, is_write && !is_fetch);
        if (!res.hit) {
            if (is_fetch)
                ++evt.l1iMisses;
            else
                ++evt.l1dMisses;
            if (res.victimValid && res.victimDirty) {
                ++evt.l1Writebacks;
                // writebackBelow: the victim drains into its SRAM page
                std::uint64_t frame =
                    res.victimAddr / pager.frameBytes();
                pager.markDirty(frame);
                pager.touch(frame);
            }
            // fillFromBelow
            ++evt.l2Accesses;
            pager.touch(paddr / pager.frameBytes());
        }
    }

    bool
    invalidateL1Range(Addr base, std::uint64_t bytes)
    {
        bool flushed_dirty = false;
        for (Addr block = base; block < base + bytes;
             block += cfg.l1BlockBytes) {
            evt.inclusionProbes += 2;
            l1i.invalidate(block);
            auto inv = l1d.invalidate(block);
            if (inv.present && inv.dirty) {
                ++evt.inclusionWritebacks;
                flushed_dirty = true;
            }
        }
        return flushed_dirty;
    }

    void
    runHandlerRefs(RefOverheadKind kind)
    {
        // handlerScratch is consumed in place; servicePageFault (the
        // only caller that could recurse) rebuilds it per call, and
        // the engine's scratch is clobbered the same way.
        std::vector<MemRef> refs;
        refs.swap(handlerScratch);
        for (const MemRef &ref : refs) {
            ++evt.refs;
            ++evt.overheadRefs;
            switch (kind) {
              case RefOverheadKind::TlbMiss:
                ++evt.tlbMissOverheadRefs;
                break;
              case RefOverheadKind::PageFault:
                ++evt.faultOverheadRefs;
                break;
              case RefOverheadKind::ContextSwitch:
                break;
            }
            cachedAccess(ref.isInstr(), ref.isWrite(),
                         pager.osPhysAddr(ref.vaddr));
        }
    }

    std::uint64_t
    servicePageFault(Pid pid, std::uint64_t vpn)
    {
        ++evt.l2Misses;
        RefFault fault = pager.handleFault(pid, vpn);

        handlerScratch.clear();
        handlers.pageFault(handlerScratch, fault.probes);
        runHandlerRefs(RefOverheadKind::PageFault);

        bool paired = pager.uniform();
        bool write_victim = false;
        for (const RefVictim &victim : fault.victims) {
            tlb.invalidate(victim.pid, victim.vpn);
            Addr victim_base = victim.startFrame * pager.frameBytes();
            bool dirty = victim.dirty;
            dirty |= invalidateL1Range(victim_base, victim.bytes);
            if (paired)
                write_victim |= dirty;
            else if (dirty)
                ++evt.dramWrites;
        }

        // The engine's DramDirectory allocation has no counter side
        // effects, so the replay skips it.
        if (paired && write_victim) {
            ++evt.dramWrites;
            ++evt.dramReads;
        } else {
            ++evt.dramReads;
        }
        return fault.frame;
    }

    CommonConfig cfg;
    RefCache l1i;
    RefCache l1d;
    RefTlb tlb;
    RefPager pager;
    HandlerTraces handlers;
    RefCounts evt;
    std::vector<MemRef> handlerScratch;
    std::vector<Addr> probeScratch;
};

// ----------------------------------------------- replayed driver loop

MemRef
pullRef(std::vector<std::unique_ptr<TraceSource>> &sources,
        std::size_t index)
{
    MemRef ref;
    if (!sources[index]->next(ref)) {
        sources[index]->reset();
        if (!sources[index]->next(ref))
            throw InternalError(
                "oracle: trace source '%s' empty after reset",
                sources[index]->name().c_str());
    }
    return ref;
}

/**
 * Replay of the blocking schedule Simulator::run() drives at one
 * core: round-robin time slices of quantumRefs references, with the
 * context-switch trace at every slice start.
 */
template <typename PerRef>
void
replayBlocking(const FuzzPoint &point, const PerRef &per_ref,
               const std::function<void()> &on_switch)
{
    auto sources = makeWorkload(point.workloadSalt);
    std::size_t current = 0;
    std::uint64_t in_slice = 0;
    for (std::uint64_t executed = 0; executed < point.sim.maxRefs;
         ++executed) {
        if (in_slice == 0 && point.sim.insertSwitchTrace)
            on_switch();
        per_ref(pullRef(sources, current));
        if (++in_slice >= point.sim.quantumRefs) {
            in_slice = 0;
            current = (current + 1) % sources.size();
        }
    }
}

// --------------------------------------------------- snapshot access

/** Fetch a counter; records a mismatch when absent or not a counter. */
bool
getCounter(const StatsSnapshot &stats, const std::string &name,
           std::uint64_t &out, std::vector<std::string> &mismatches)
{
    const StatsSnapshot::Entry *entry = stats.find(name);
    if (!entry || entry->kind != StatsSnapshot::Kind::Counter) {
        mismatches.push_back(formatErrorMessage(
            "counter '%s' missing from the engine snapshot",
            name.c_str()));
        return false;
    }
    out = entry->counter;
    return true;
}

void
expectCounter(const StatsSnapshot &stats, const std::string &name,
              std::uint64_t expected,
              std::vector<std::string> &mismatches)
{
    std::uint64_t got = 0;
    if (!getCounter(stats, name, got, mismatches))
        return;
    if (got != expected)
        mismatches.push_back(formatErrorMessage(
            "%s: engine %llu, oracle %llu", name.c_str(),
            static_cast<unsigned long long>(got),
            static_cast<unsigned long long>(expected)));
}

/** Check `lhs_name == sum of rhs` as an accounting identity. */
void
expectIdentity(const StatsSnapshot &stats, const std::string &label,
               const std::vector<std::string> &lhs,
               const std::vector<std::string> &rhs,
               std::vector<std::string> &mismatches)
{
    std::uint64_t left = 0, right = 0;
    for (const std::string &name : lhs) {
        std::uint64_t v = 0;
        if (!getCounter(stats, name, v, mismatches))
            return;
        left += v;
    }
    for (const std::string &name : rhs) {
        std::uint64_t v = 0;
        if (!getCounter(stats, name, v, mismatches))
            return;
        right += v;
    }
    if (left != right)
        mismatches.push_back(formatErrorMessage(
            "identity '%s' violated: %llu != %llu", label.c_str(),
            static_cast<unsigned long long>(left),
            static_cast<unsigned long long>(right)));
}

// ------------------------------------------------------ mode drivers

void
checkPagedFullReplay(const FuzzPoint &point, const StatsSnapshot &stats,
                     std::vector<std::string> &mismatches)
{
    RefPagedSystem sys(point.hier.paged);
    replayBlocking(
        point, [&](const MemRef &ref) { sys.access(ref); },
        [&] { sys.runContextSwitchTrace(); });

    const RefCounts &evt = sys.counts();
    expectCounter(stats, "sim.refs", evt.refs, mismatches);
    expectCounter(stats, "sim.trace_refs", evt.traceRefs, mismatches);
    expectCounter(stats, "sim.overhead_refs", evt.overheadRefs,
                  mismatches);
    expectCounter(stats, "sim.instr_fetches", evt.instrFetches,
                  mismatches);
    expectCounter(stats, "sim.l1i_misses", evt.l1iMisses, mismatches);
    expectCounter(stats, "sim.l1d_misses", evt.l1dMisses, mismatches);
    expectCounter(stats, "sim.l1_writebacks", evt.l1Writebacks,
                  mismatches);
    expectCounter(stats, "sim.l2_accesses", evt.l2Accesses, mismatches);
    expectCounter(stats, "sim.l2_misses", evt.l2Misses, mismatches);
    expectCounter(stats, "sim.tlb_misses", evt.tlbMisses, mismatches);
    expectCounter(stats, "sim.tlb_miss_overhead_refs",
                  evt.tlbMissOverheadRefs, mismatches);
    expectCounter(stats, "sim.fault_overhead_refs",
                  evt.faultOverheadRefs, mismatches);
    expectCounter(stats, "sim.inclusion_probes", evt.inclusionProbes,
                  mismatches);
    expectCounter(stats, "sim.inclusion_writebacks",
                  evt.inclusionWritebacks, mismatches);
    expectCounter(stats, "sim.context_switches", evt.contextSwitches,
                  mismatches);
    expectCounter(stats, "sim.victim_cache_hits", 0, mismatches);
    expectCounter(stats, "dram.reads", evt.dramReads, mismatches);
    expectCounter(stats, "dram.writes", evt.dramWrites, mismatches);

    auto check_cache = [&](const char *prefix,
                           const RefCacheStats &c) {
        std::string p(prefix);
        expectCounter(stats, p + ".hits", c.hits, mismatches);
        expectCounter(stats, p + ".misses", c.misses, mismatches);
        expectCounter(stats, p + ".evictions", c.evictions,
                      mismatches);
        expectCounter(stats, p + ".dirty_evictions", c.dirtyEvictions,
                      mismatches);
        expectCounter(stats, p + ".invalidations", c.invalidations,
                      mismatches);
    };
    check_cache("l1i", sys.l1iStats());
    check_cache("l1d", sys.l1dStats());

    expectCounter(stats, "tlb.hits", sys.tlbStats().hits, mismatches);
    expectCounter(stats, "tlb.misses", sys.tlbStats().misses,
                  mismatches);
    expectCounter(stats, "tlb.flushes", sys.tlbStats().flushes,
                  mismatches);

    const RefPagerStats &pg = sys.pagerStats();
    expectCounter(stats, "pager.faults", pg.faults, mismatches);
    expectCounter(stats, "pager.dirty_writebacks", pg.dirtyWritebacks,
                  mismatches);
    // The two page-size policies register different extra counters.
    RefPager probe(point.hier.paged.pager);
    if (probe.uniform())
        expectCounter(stats, "pager.cold_fills", pg.coldFills,
                      mismatches);
    else
        expectCounter(stats, "pager.victims_evicted",
                      pg.victimsEvicted, mismatches);
}

void
checkConventionalTlbReplay(const FuzzPoint &point,
                           const StatsSnapshot &stats,
                           std::vector<std::string> &mismatches)
{
    const CommonConfig &cfg = point.hier.conventional.common;
    constexpr std::uint64_t tlb_miss_instrs = HandlerTraces::tlbMissInstrs;
    constexpr std::uint64_t switch_len = HandlerTraces::contextSwitchLength;
    unsigned page_bits = floorLog2(cfg.dramPageBytes);

    // Exact TLB replay: conventional translation is fault-free, the
    // walk costs a fixed two directory probes, and OS handler refs
    // bypass the TLB — so the TLB stream depends only on the workload
    // interleaving, which the blocking scheduler replays verbatim.
    RefTlb tlb(cfg.tlb);
    std::uint64_t trace_ifetches = 0;
    replayBlocking(
        point,
        [&](const MemRef &ref) {
            if (ref.isInstr())
                ++trace_ifetches;
            std::uint64_t vpn = ref.vaddr >> page_bits;
            std::uint64_t frame = 0;
            if (!tlb.lookup(ref.pid, vpn, frame))
                tlb.insert(ref.pid, vpn, 0); // frame value irrelevant
        },
        [] {});

    std::uint64_t misses = tlb.stats().misses;
    std::uint64_t switches =
        point.sim.insertSwitchTrace
            ? divCeil(point.sim.maxRefs, point.sim.quantumRefs)
            : 0;

    expectCounter(stats, "tlb.hits", tlb.stats().hits, mismatches);
    expectCounter(stats, "tlb.misses", misses, mismatches);
    expectCounter(stats, "tlb.flushes", 0, mismatches);
    expectCounter(stats, "sim.tlb_misses", misses, mismatches);
    expectCounter(stats, "sim.trace_refs", point.sim.maxRefs,
                  mismatches);
    expectCounter(stats, "sim.context_switches", switches, mismatches);
    // TLB-miss handler: body instructions plus two directory probes.
    expectCounter(stats, "sim.tlb_miss_overhead_refs",
                  (tlb_miss_instrs + 2) * misses, mismatches);
    expectCounter(stats, "sim.fault_overhead_refs", 0, mismatches);
    expectCounter(stats, "sim.overhead_refs",
                  (tlb_miss_instrs + 2) * misses + switch_len * switches,
                  mismatches);
    expectCounter(stats, "sim.refs",
                  point.sim.maxRefs + (tlb_miss_instrs + 2) * misses +
                      switch_len * switches,
                  mismatches);
    expectCounter(stats, "sim.instr_fetches",
                  trace_ifetches + tlb_miss_instrs * misses +
                      HandlerTraces::contextSwitchInstrs * switches,
                  mismatches);

    // Cache counters ride on DRAM frame placement the oracle does not
    // model; hold them to the conservation identities instead.
    expectIdentity(stats, "l1i accesses", {"l1i.hits", "l1i.misses"},
                   {"sim.instr_fetches"}, mismatches);
    std::uint64_t refs = 0, fetches = 0;
    if (getCounter(stats, "sim.refs", refs, mismatches) &&
        getCounter(stats, "sim.instr_fetches", fetches, mismatches)) {
        std::uint64_t l1d_hits = 0, l1d_misses = 0;
        if (getCounter(stats, "l1d.hits", l1d_hits, mismatches) &&
            getCounter(stats, "l1d.misses", l1d_misses, mismatches) &&
            l1d_hits + l1d_misses != refs - fetches)
            mismatches.push_back(formatErrorMessage(
                "identity 'l1d accesses' violated: %llu != %llu",
                static_cast<unsigned long long>(l1d_hits + l1d_misses),
                static_cast<unsigned long long>(refs - fetches)));
    }
    expectIdentity(stats, "evt l1i misses", {"sim.l1i_misses"},
                   {"l1i.misses"}, mismatches);
    expectIdentity(stats, "evt l1d misses", {"sim.l1d_misses"},
                   {"l1d.misses"}, mismatches);
    expectIdentity(stats, "L2 accesses",
                   {"sim.l2_accesses"},
                   {"sim.l1i_misses", "sim.l1d_misses"}, mismatches);
    expectIdentity(stats, "L1 writebacks", {"sim.l1_writebacks"},
                   {"l1i.dirty_evictions", "l1d.dirty_evictions"},
                   mismatches);
    if (point.hier.conventional.l2Style ==
        ConventionalConfig::L2Style::SetAssoc) {
        expectIdentity(stats, "L2 conservation",
                       {"l2.hits", "l2.misses"}, {"sim.l2_accesses"},
                       mismatches);
        expectIdentity(stats, "L2 miss agreement", {"sim.l2_misses"},
                       {"l2.misses"}, mismatches);
    } else {
        expectIdentity(stats, "column L2 conservation",
                       {"l2.first_hits", "l2.rehash_hits",
                        "l2.misses"},
                       {"sim.l2_accesses"}, mismatches);
        expectIdentity(stats, "L2 miss agreement", {"sim.l2_misses"},
                       {"l2.misses"}, mismatches);
    }
    // Every L2 miss reads DRAM unless the victim cache intercepted it.
    expectIdentity(stats, "DRAM read sourcing",
                   {"dram.reads", "sim.victim_cache_hits"},
                   {"sim.l2_misses"}, mismatches);
}

void
checkPagedIdentities(const FuzzPoint &point, const StatsSnapshot &stats,
                     std::vector<std::string> &mismatches)
{
    expectCounter(stats, "sim.trace_refs", point.sim.maxRefs,
                  mismatches);
    expectIdentity(stats, "ref conservation", {"sim.refs"},
                   {"sim.trace_refs", "sim.overhead_refs"}, mismatches);
    expectIdentity(stats, "TLB lookups",
                   {"tlb.hits", "tlb.misses"}, {"sim.trace_refs"},
                   mismatches);
    expectIdentity(stats, "TLB miss agreement", {"sim.tlb_misses"},
                   {"tlb.misses"}, mismatches);
    expectIdentity(stats, "evt l1i misses", {"sim.l1i_misses"},
                   {"l1i.misses"}, mismatches);
    expectIdentity(stats, "evt l1d misses", {"sim.l1d_misses"},
                   {"l1d.misses"}, mismatches);
    expectIdentity(stats, "L1i accesses", {"l1i.hits", "l1i.misses"},
                   {"sim.instr_fetches"}, mismatches);
    expectIdentity(stats, "L2 accesses", {"sim.l2_accesses"},
                   {"sim.l1i_misses", "sim.l1d_misses"}, mismatches);
    expectIdentity(stats, "L1 writebacks", {"sim.l1_writebacks"},
                   {"l1i.dirty_evictions", "l1d.dirty_evictions"},
                   mismatches);
    expectIdentity(stats, "fault agreement", {"pager.faults"},
                   {"sim.l2_misses"}, mismatches);
    // Every fault streams exactly one page in from DRAM (paired or
    // not), and RAMpage has no victim cache.
    expectIdentity(stats, "DRAM reads", {"dram.reads"},
                   {"pager.faults"}, mismatches);
    expectCounter(stats, "sim.victim_cache_hits", 0, mismatches);
    // Writes: at most one per fault (uniform pairing) and at least
    // one per pager-recorded dirty writeback... not exactly — the
    // inclusion flush can dirty an otherwise-clean victim, so only a
    // bound holds.
    std::uint64_t writes = 0, faults = 0;
    if (getCounter(stats, "dram.writes", writes, mismatches) &&
        getCounter(stats, "pager.faults", faults, mismatches)) {
        std::uint64_t per_fault_max =
            point.hier.paged.pager.defaultPageBytes == 0
                ? 1
                : std::numeric_limits<std::uint64_t>::max();
        if (per_fault_max == 1 && writes > faults)
            mismatches.push_back(formatErrorMessage(
                "dram.writes %llu exceeds one per fault (%llu faults)",
                static_cast<unsigned long long>(writes),
                static_cast<unsigned long long>(faults)));
    }
}

} // namespace

const char *
oracleModeName(OracleReport::Mode mode)
{
    switch (mode) {
      case OracleReport::Mode::FullReplay:
        return "full-replay";
      case OracleReport::Mode::TlbReplay:
        return "tlb-replay";
      case OracleReport::Mode::Identities:
        return "identities";
    }
    return "?";
}

OracleReport
crossCheckOracle(const FuzzPoint &point, const StatsSnapshot &stats)
{
    OracleReport report;
    if (point.hier.family == HierarchyConfig::Family::Conventional) {
        report.mode = OracleReport::Mode::TlbReplay;
        checkConventionalTlbReplay(point, stats, report.mismatches);
    } else if (point.hier.paged.switchOnMiss) {
        report.mode = OracleReport::Mode::Identities;
        checkPagedIdentities(point, stats, report.mismatches);
    } else {
        report.mode = OracleReport::Mode::FullReplay;
        checkPagedFullReplay(point, stats, report.mismatches);
    }
    return report;
}

} // namespace rampage
