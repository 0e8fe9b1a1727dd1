#include "os/page_store.hh"

#include <algorithm>
#include <unordered_set>

#include "stats/registry.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

PageStoreParams
PageStore::normalized(PageStoreParams params)
{
    // A per-pid configuration where every page equals the base frame
    // is the uniform policy; collapse it so the two spellings share
    // one code path (and one stats layout, reserve size, probe
    // stream, DRAM pricing).
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

PageStore::PageStore(const PageStoreParams &params)
    : prm(normalized(params))
{
    if (uniform()) {
        if (!isPowerOfTwo(prm.pageBytes))
            throw ConfigError("SRAM page size must be a power of two");
        if (prm.baseSramBytes % prm.pageBytes != 0)
            throw ConfigError(
                "SRAM capacity must be a multiple of the page size");
    } else {
        if (!isPowerOfTwo(prm.pageBytes))
            throw ConfigError("base frame size must be a power of two");
        if (prm.baseSramBytes % prm.pageBytes != 0)
            throw ConfigError(
                "SRAM capacity must be a multiple of the base frame");
        auto check_size = [&](std::uint64_t bytes) {
            if (!isPowerOfTwo(bytes) || bytes < prm.pageBytes)
                throw ConfigError(
                    "page size %llu invalid for base frame %llu",
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(prm.pageBytes));
        };
        check_size(prm.defaultPageBytes);
        for (const auto &[pid, bytes] : prm.pageBytesByPid) {
            (void)pid;
            check_size(bytes);
        }
    }

    // Capacity: cache-equivalent size plus the reclaimed tag bytes
    // (paper §4.5).  The bonus is rounded down to whole frames.
    std::uint64_t blocks = prm.baseSramBytes / prm.pageBytes;
    std::uint64_t bonus = blocks * prm.tagBytesPerBlock;
    totalBytes = prm.baseSramBytes + alignDown(bonus, floorLog2(prm.pageBytes));
    nFrames = totalBytes / prm.pageBytes;
    if (nFrames > InvertedPageTable::maxFrames)
        throw ConfigError(
            "SRAM frame count %llu exceeds the page table's 32-bit "
            "frame links (at most %llu frames)",
            static_cast<unsigned long long>(nFrames),
            static_cast<unsigned long long>(InvertedPageTable::maxFrames));

    // The table is sized for every frame; the pinned reserve is the
    // table image plus the fixed OS code/data, rounded up to frames.
    tableVbase = osVirtBase + prm.osFixedBytes;
    ipt = std::make_unique<InvertedPageTable>(nFrames, tableVbase);
    if (uniform()) {
        nOsFrames = divCeil(prm.osFixedBytes + ipt->tableBytes(),
                            prm.pageBytes);
        if (nOsFrames >= nFrames)
            throw ConfigError(
                "operating-system reserve (%llu pages) consumes the whole "
                "SRAM (%llu pages)",
                static_cast<unsigned long long>(nOsFrames),
                static_cast<unsigned long long>(nFrames));
        if (prm.repl == PageReplKind::Standby &&
            prm.standbyPages >= nFrames - nOsFrames)
            throw ConfigError(
                "standbyPages (%llu) must be smaller than the "
                "evictable SRAM (%llu frames)",
                static_cast<unsigned long long>(prm.standbyPages),
                static_cast<unsigned long long>(nFrames - nOsFrames));
        repl = makePageReplacement(prm.repl, nFrames, nOsFrames, prm.seed,
                                   prm.standbyPages);
    } else {
        // Same reserve accounting as the uniform policy: fixed OS
        // image plus ~20 B of table per base frame (anchors folded).
        std::uint64_t table_bytes = nFrames * 20 + (nFrames / 4) * 8;
        nOsFrames = divCeil(prm.osFixedBytes + table_bytes,
                            prm.pageBytes);
        if (nOsFrames >= nFrames)
            throw ConfigError(
                "operating-system reserve consumes the whole SRAM");
        frameStart.assign(nFrames, noFrame);
        refd.assign(nFrames, false);
        hand = nOsFrames;
    }
    dirty.assign(nFrames, false);
    nextFreeFrame = nOsFrames;
}

std::uint64_t
PageStore::pageFrames(Pid pid) const
{
    return pageBytes(pid) / prm.pageBytes;
}

std::uint64_t
PageStore::residentPages() const
{
    return uniform() ? ipt->mappedCount() : nResident;
}

Addr
PageStore::probeAddr(Pid pid, std::uint64_t vpn) const
{
    // Synthesized table-word address for the handler trace: spread
    // over the pinned table image like the uniform hash chains.
    std::uint64_t key = (static_cast<std::uint64_t>(pid) << 44) ^ vpn;
    std::uint64_t mix = key * 0x9e3779b97f4a7c15ull;
    mix ^= mix >> 31;
    std::uint64_t span = nFrames * 20;
    return tableVbase + (mix % span) / 20 * 20;
}

IptLookup
PageStore::lookup(Pid pid, std::uint64_t vpn,
                  std::vector<Addr> *probes) const
{
    if (uniform())
        return ipt->lookup(pid, vpn, probes);
    // The per-pid handler walks a shallower structure; its trace uses
    // synthesized table words rather than the live hash chain.
    if (probes) {
        probes->push_back(probeAddr(pid, vpn));
        probes->push_back(probeAddr(pid, vpn ^ 0x5555));
    }
    return ipt->lookup(pid, vpn, nullptr);
}

void
PageStore::markDirty(std::uint64_t frame)
{
    RAMPAGE_ASSERT(frame < nFrames, "frame out of range");
    if (uniform()) {
        dirty[frame] = true;
        return;
    }
    std::uint64_t start = frameStart[frame];
    if (start != noFrame)
        dirty[start] = true;
}

bool
PageStore::isDirty(std::uint64_t frame) const
{
    RAMPAGE_ASSERT(frame < nFrames, "frame out of range");
    if (uniform())
        return dirty[frame];
    std::uint64_t start = frameStart[frame];
    return start != noFrame && dirty[start];
}

bool
PageStore::frameOwned(std::uint64_t frame) const
{
    RAMPAGE_ASSERT(frame < nFrames, "frame out of range");
    return uniform() ? ipt->mapped(frame)
                     : frameStart[frame] != noFrame;
}

const PageReplacementPolicy &
PageStore::policy() const
{
    RAMPAGE_ASSERT(repl != nullptr,
                   "no frame replacement policy under the per-pid "
                   "page-size policy");
    return *repl;
}

void
PageStore::registerStats(StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.addCounter(prefix + ".faults", "SRAM main-memory page faults",
                   &stat.faults);
    if (uniform()) {
        reg.addCounter(prefix + ".dirty_writebacks",
                       "dirty victim pages written to DRAM",
                       &stat.dirtyWritebacks);
        reg.addCounter(prefix + ".cold_fills",
                       "faults satisfied by a free frame",
                       &stat.coldFills);
    } else {
        reg.addCounter(prefix + ".victims_evicted",
                       "pages evicted by the window clock",
                       &stat.victimsEvicted);
        reg.addCounter(prefix + ".dirty_writebacks",
                       "dirty victim pages written to DRAM",
                       &stat.dirtyWritebacks);
    }
}

void
PageStore::evictWindow(std::uint64_t start, std::uint64_t frames,
                       PageFaultResult &result)
{
    for (std::uint64_t f = start; f < start + frames; ++f) {
        std::uint64_t s = frameStart[f];
        if (s == noFrame)
            continue;
        Pid vpid = ipt->framePid(s);
        std::uint64_t vvpn = ipt->frameVpn(s);
        std::uint64_t k = pageFrames(vpid);
        PageVictim victim;
        victim.pid = vpid;
        victim.vpn = vvpn;
        victim.startFrame = s;
        victim.frames = k;
        victim.bytes = k * prm.pageBytes;
        victim.dirty = dirty[s];
        result.victims.push_back(victim);
        result.probes.push_back(probeAddr(vpid, vvpn));
        if (dirty[s])
            ++stat.dirtyWritebacks;
        ++stat.victimsEvicted;

        // Unmap the whole page (it may extend beyond the window).
        for (std::uint64_t g = s; g < s + k; ++g)
            frameStart[g] = noFrame;
        ipt->remove(s);
        dirty[s] = false;
        refd[s] = false;
        --nResident;
    }
}

PageFaultResult
PageStore::handleFault(Pid pid, std::uint64_t vpn)
{
    if (uniform()) {
        PageFaultResult result;
        ++stat.faults;

        // The handler re-walks the table (the TLB miss that preceded
        // the fault already did, but the fault path validates before
        // acting).
        IptLookup walk = ipt->lookup(pid, vpn, &result.probes);
        RAMPAGE_ASSERT(!walk.found, "fault raised for a resident page");

        std::uint64_t frame;
        if (nextFreeFrame < nFrames) {
            // Cold fill: frames are handed out in order until the SRAM
            // is fully populated, as in the paper's warm-up discussion
            // §4.2.
            frame = nextFreeFrame++;
            result.scanCost = 1;
            ++stat.coldFills;
        } else {
            frame = repl->pickVictim(&result.scanCost);
            RAMPAGE_ASSERT(frame >= nOsFrames,
                           "victim from the pinned reserve");
        }

        if (ipt->mapped(frame)) {
            PageVictim victim;
            victim.pid = ipt->framePid(frame);
            victim.vpn = ipt->frameVpn(frame);
            victim.startFrame = frame;
            victim.frames = 1;
            victim.bytes = prm.pageBytes;
            victim.dirty = dirty[frame];
            if (dirty[frame])
                ++stat.dirtyWritebacks;
            // The handler updates the victim's table entry too.
            result.probes.push_back(ipt->entryAddr(frame));
            ipt->remove(frame);
            result.victims.push_back(victim);
        }

        dirty[frame] = false;
        ipt->insert(frame, pid, vpn);
        repl->fill(frame);
        result.probes.push_back(ipt->entryAddr(frame));
        result.frame = frame;
        [[maybe_unused]] bool victim_valid = !result.victims.empty();
        [[maybe_unused]] bool victim_dirty =
            victim_valid && result.victims[0].dirty;
        RAMPAGE_DPRINTF(Pager,
                        "fault pid=%u vpn=0x%llx -> frame=%llu victim=%d "
                        "dirty=%d scan=%u",
                        static_cast<unsigned>(pid),
                        static_cast<unsigned long long>(vpn),
                        static_cast<unsigned long long>(frame),
                        victim_valid ? 1 : 0, victim_dirty ? 1 : 0,
                        result.scanCost);
        return result;
    }

    PageFaultResult result;
    ++stat.faults;
    result.probes.push_back(probeAddr(pid, vpn));

    std::uint64_t k = pageFrames(pid);
    std::uint64_t start;

    // Cold fill: bump-allocate an aligned run while space remains.
    std::uint64_t aligned_next =
        (nextFreeFrame + k - 1) / k * k; // align up to k
    if (aligned_next + k <= nFrames) {
        start = aligned_next;
        nextFreeFrame = aligned_next + k;
        result.scanCost = 1;
    } else {
        // Window clock: find a k-aligned window whose pages are all
        // unreferenced (second chance clears marks as the hand moves).
        std::uint64_t first_window = divCeil(nOsFrames, k) * k;
        if (first_window + k > nFrames)
            throw ConfigError(
                "page size %llu too large for the evictable SRAM",
                static_cast<unsigned long long>(k * prm.pageBytes));
        if (hand < first_window || hand + k > nFrames)
            hand = first_window;
        hand = hand / k * k;

        std::uint64_t windows = (nFrames - first_window) / k;
        unsigned scanned = 0;
        std::uint64_t chosen = first_window;
        bool found = false;
        for (std::uint64_t step = 0; step < 2 * windows + 1; ++step) {
            std::uint64_t w = hand;
            hand += k;
            if (hand + k > nFrames)
                hand = first_window;
            ++scanned;

            bool referenced = false;
            for (std::uint64_t f = w; f < w + k; ++f) {
                std::uint64_t s = frameStart[f];
                if (s != noFrame && refd[s])
                    referenced = true;
            }
            if (referenced) {
                // Second chance for every page in the window.
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
                "window clock failed to choose a victim window");
        result.scanCost = scanned;
        evictWindow(chosen, k, result);
        start = chosen;
    }

    // Map the new page.
    ipt->insert(start, pid, vpn);
    for (std::uint64_t f = start; f < start + k; ++f)
        frameStart[f] = start;
    dirty[start] = false;
    refd[start] = true;
    ++nResident;

    result.probes.push_back(probeAddr(pid, vpn));
    result.frame = start;
    RAMPAGE_DPRINTF(Pager,
                    "var fault pid=%u vpn=0x%llx -> frames=[%llu,+%llu) "
                    "victims=%zu scan=%u",
                    static_cast<unsigned>(pid),
                    static_cast<unsigned long long>(vpn),
                    static_cast<unsigned long long>(start),
                    static_cast<unsigned long long>(k),
                    result.victims.size(), result.scanCost);
    return result;
}

void
PageStore::auditState(AuditContext &ctx) const
{
    ipt->auditState(ctx);
    if (uniform())
        auditUniform(ctx);
    else
        auditPerPid(ctx);
}

void
PageStore::auditUniform(AuditContext &ctx) const
{
    for (std::uint64_t f = 0; f < nOsFrames; ++f)
        ctx.check(!ipt->mapped(f), "pager.os_reserve",
                  "pinned OS frame %llu maps pid=%u vpn=0x%llx",
                  static_cast<unsigned long long>(f),
                  static_cast<unsigned>(
                      ipt->mapped(f) ? ipt->framePid(f) : 0),
                  static_cast<unsigned long long>(
                      ipt->mapped(f) ? ipt->frameVpn(f) : 0));

    // Outside handleFault(), every cold-filled user frame holds a page:
    // the fault path removes a victim and reinserts in one call, so an
    // unmapped frame below the cold-fill cursor is leaked capacity.
    std::uint64_t cursor = std::min(nextFreeFrame, nFrames);
    for (std::uint64_t f = nOsFrames; f < cursor; ++f)
        ctx.check(ipt->mapped(f), "pager.leak",
                  "user frame %llu below the cold-fill cursor (%llu) "
                  "maps no page",
                  static_cast<unsigned long long>(f),
                  static_cast<unsigned long long>(nextFreeFrame));

    for (std::uint64_t f = cursor; f < nFrames; ++f)
        ctx.check(!ipt->mapped(f), "pager.cold_region",
                  "frame %llu beyond the cold-fill cursor (%llu) maps "
                  "pid=%u vpn=0x%llx",
                  static_cast<unsigned long long>(f),
                  static_cast<unsigned long long>(nextFreeFrame),
                  static_cast<unsigned>(
                      ipt->mapped(f) ? ipt->framePid(f) : 0),
                  static_cast<unsigned long long>(
                      ipt->mapped(f) ? ipt->frameVpn(f) : 0));

    // A dirty bit on an unmapped user frame would either be lost (the
    // data is gone) or charged to whatever page lands there next.
    // OS frames are exempt: they are dirtied by handler stores but
    // pinned outside the table.
    for (std::uint64_t f = nOsFrames; f < nFrames; ++f) {
        if (dirty[f])
            ctx.check(ipt->mapped(f), "pager.stale_dirty",
                      "unmapped user frame %llu is marked dirty",
                      static_cast<unsigned long long>(f));
    }

    // Two frames holding the same page would make residency depend on
    // probe order (the chain audit cannot see this: both entries hash
    // to — and legitimately chain from — the same bucket).
    std::unordered_set<std::uint64_t> pages;
    pages.reserve(ipt->mappedCount());
    for (std::uint64_t f = nOsFrames; f < nFrames; ++f) {
        if (!ipt->mapped(f))
            continue;
        std::uint64_t key =
            (static_cast<std::uint64_t>(ipt->framePid(f)) << 48) ^
            ipt->frameVpn(f);
        ctx.check(pages.insert(key).second, "pager.double_map",
                  "pid=%u vpn=0x%llx resident in two frames (second: "
                  "%llu)",
                  static_cast<unsigned>(ipt->framePid(f)),
                  static_cast<unsigned long long>(ipt->frameVpn(f)),
                  static_cast<unsigned long long>(f));
    }
}

void
PageStore::auditPerPid(AuditContext &ctx) const
{
    std::uint64_t valid_pages = 0;
    for (std::uint64_t s = 0; s < nFrames; ++s) {
        if (!ipt->mapped(s))
            continue;
        ++valid_pages;
        Pid pid = ipt->framePid(s);
        std::uint64_t vpn = ipt->frameVpn(s);
        std::uint64_t k = pageFrames(pid);

        bool placed = ctx.check(
            k > 0 && s % k == 0 && s >= nOsFrames && s + k <= nFrames,
            "var.frame_map",
            "page pid=%u vpn=0x%llx misplaced: frames [%llu,+%llu) "
            "(reserve %llu, total %llu, alignment %llu)",
            static_cast<unsigned>(pid),
            static_cast<unsigned long long>(vpn),
            static_cast<unsigned long long>(s),
            static_cast<unsigned long long>(k),
            static_cast<unsigned long long>(nOsFrames),
            static_cast<unsigned long long>(nFrames),
            static_cast<unsigned long long>(k));
        if (placed) {
            for (std::uint64_t f = s; f < s + k; ++f)
                ctx.check(frameStart[f] == s, "var.frame_map",
                          "frame %llu of page pid=%u vpn=0x%llx is "
                          "owned by start %lld, not %llu",
                          static_cast<unsigned long long>(f),
                          static_cast<unsigned>(pid),
                          static_cast<unsigned long long>(vpn),
                          frameStart[f] == noFrame
                              ? -1ll
                              : static_cast<long long>(frameStart[f]),
                          static_cast<unsigned long long>(s));
        }
    }

    // Frames may legitimately be unowned below the bump cursor
    // (cold-fill alignment holes), but an owner must always be a
    // live resident page, and the OS reserve is never owned.
    for (std::uint64_t f = 0; f < nFrames; ++f) {
        std::uint64_t s = frameStart[f];
        if (s == noFrame)
            continue;
        ctx.check(f >= nOsFrames, "var.frame_map",
                  "pinned OS frame %llu is owned by page start %llu",
                  static_cast<unsigned long long>(f),
                  static_cast<unsigned long long>(s));
        ctx.check(s < nFrames && ipt->mapped(s), "var.frame_map",
                  "frame %llu owned by dead page start %llu",
                  static_cast<unsigned long long>(f),
                  static_cast<unsigned long long>(s));
    }

    ctx.check(valid_pages == nResident &&
                  ipt->mappedCount() == nResident,
              "var.count",
              "%llu valid pages, %llu table entries, but "
              "residentPages() says %llu",
              static_cast<unsigned long long>(valid_pages),
              static_cast<unsigned long long>(ipt->mappedCount()),
              static_cast<unsigned long long>(nResident));
}

bool
PageStore::corruptUnlinkEntry()
{
    for (std::uint64_t f = nOsFrames; f < nFrames; ++f)
        if (ipt->mapped(f))
            return ipt->corruptUnlink(f);
    return false;
}

bool
PageStore::corruptStaleDirty()
{
    if (!uniform())
        return false;
    for (std::uint64_t f = nOsFrames; f < nFrames; ++f) {
        if (!ipt->mapped(f)) {
            dirty[f] = true;
            return true;
        }
    }
    return false;
}

bool
PageStore::corruptLeakFrame()
{
    if (!uniform())
        return false;
    for (std::uint64_t f = nOsFrames; f < nFrames; ++f) {
        if (f < nextFreeFrame && ipt->mapped(f))
            return ipt->remove(f);
    }
    return false;
}

bool
PageStore::corruptDropOwner()
{
    if (uniform())
        return false;
    for (std::uint64_t f = nOsFrames; f < nFrames; ++f) {
        if (frameStart[f] != noFrame) {
            frameStart[f] = noFrame;
            return true;
        }
    }
    return false;
}

} // namespace rampage
