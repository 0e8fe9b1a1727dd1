#include "core/paged.hh"

#include "core/access_engine.hh"
#include "obs/trace_session.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

PagedHierarchy::PagedHierarchy(const PagedConfig &config)
    : Hierarchy(config.common, l1WritebackCycles),
      pcfg(config),
      store(config.pager)
{
    const PageStoreParams &sp = store.params();
    if (store.uniform()) {
        if (sp.pageBytes < cfg.l1BlockBytes)
            throw ConfigError(
                "SRAM page (%llu) smaller than the L1 block (%llu)",
                static_cast<unsigned long long>(sp.pageBytes),
                static_cast<unsigned long long>(cfg.l1BlockBytes));
        if (sp.pageBytes > cfg.dramPageBytes)
            throw ConfigError(
                "SRAM page larger than the DRAM page: a fault would span "
                "DRAM pages");
    } else {
        if (sp.pageBytes < cfg.l1BlockBytes)
            throw ConfigError("base frame smaller than the L1 block");
        auto check = [&](std::uint64_t bytes) {
            if (bytes > cfg.dramPageBytes)
                throw ConfigError(
                    "SRAM page larger than the DRAM page");
        };
        check(sp.defaultPageBytes);
        for (const auto &[pid, bytes] : sp.pageBytesByPid) {
            (void)pid;
            check(bytes);
        }
    }
    store.registerStats(statsReg, "pager");
}

std::string
PagedHierarchy::name() const
{
    if (!store.uniform())
        return "RAMpage-var";
    return pcfg.switchOnMiss ? "RAMpage+switch" : "RAMpage";
}

// Statically-bound hot path: the class is `final`, so these
// instantiations resolve every policy hook at compile time.
AccessOutcome
PagedHierarchy::access(const MemRef &ref)
{
    return AccessEngine::access(*this, ref);
}

BatchOutcome
PagedHierarchy::accessBatch(const MemRef *refs, std::size_t n,
                            bool stop_on_deferred_fault)
{
    return AccessEngine::accessBatch(*this, refs, n,
                                     stop_on_deferred_fault);
}

Tick
PagedHierarchy::runContextSwitchTrace()
{
    return AccessEngine::runContextSwitchTrace(*this);
}

Hierarchy::TranslationWalk
PagedHierarchy::walkTranslation(Pid pid, std::uint64_t vpn,
                                std::vector<Addr> &probes)
{
    IptLookup walk = store.lookup(pid, vpn, &probes);
    return TranslationWalk{walk.found, walk.frame};
}

std::uint64_t
PagedHierarchy::resolveFault(Pid pid, std::uint64_t vpn,
                             AccessOutcome &outcome)
{
    outcome.pageFault = true;
    return servicePageFault(pid, vpn, outcome.deferPs);
}

void
PagedHierarchy::auditState(AuditContext &ctx) const
{
    Hierarchy::auditState(ctx);
    store.auditState(ctx);
    backend.dir.auditState(ctx);

    const InvertedPageTable &ipt = store.table();

    for (unsigned c = 0; c < coreCount(); ++c) {
        const CoreFrontend &core = fe(c);
        const std::string who =
            coreCount() == 1 ? std::string()
                             : "core" + std::to_string(c) + " ";

        // L1 inclusion in the SRAM main memory: every cached block
        // must lie inside the SRAM and inside a pinned OS frame or a
        // frame a resident page backs — a block of an evicted page is
        // stale data.
        auto check_inclusion = [&](const SetAssocCache &l1,
                                   const char *label) {
            l1.forEachValidBlock([&](Addr addr, bool) {
                if (!ctx.check(addr < store.sramBytes(), "inclusion.l1",
                               "%s%s block 0x%llx lies outside the "
                               "%llu-byte SRAM main memory",
                               who.c_str(), label,
                               static_cast<unsigned long long>(addr),
                               static_cast<unsigned long long>(
                                   store.sramBytes())))
                    return true;
                std::uint64_t frame = addr / store.frameBytes();
                ctx.check(store.frameBacked(frame), "inclusion.l1",
                          "%s%s block 0x%llx cached from unmapped SRAM "
                          "frame %llu",
                          who.c_str(), label,
                          static_cast<unsigned long long>(addr),
                          static_cast<unsigned long long>(frame));
                return true;
            });
        };
        check_inclusion(core.l1iCache, "l1i");
        check_inclusion(core.l1dCache, "l1d");

        // Every TLB entry must agree with the page table it caches
        // (the cached frame is the page's start frame in both
        // policies) — and, coherence-lite, the frame's residency mask
        // must carry this core's bit: page replacement relies on the
        // mask to find every private copy an ownership change must
        // invalidate, so a live translation the mask misses is a
        // stale-private-copy hazard (ModelFault::StalePrivateCopy
        // proves this detector works).
        core.tlbUnit.forEachValidEntry([&](Pid pid, std::uint64_t vpn,
                                           std::uint64_t frame) {
            bool backed = frame >= store.osFrames() &&
                          frame < store.totalFrames() &&
                          ipt.mapped(frame) &&
                          ipt.framePid(frame) == pid &&
                          ipt.frameVpn(frame) == vpn;
            ctx.check(backed, "tlb.backing",
                      "%sTLB translates pid=%u vpn=0x%llx to SRAM "
                      "frame %llu, which the page table does not back",
                      who.c_str(), static_cast<unsigned>(pid),
                      static_cast<unsigned long long>(vpn),
                      static_cast<unsigned long long>(frame));
            ctx.check(backend.resident(frame, core.id),
                      "coherence.residency",
                      "%sTLB holds a live translation for SRAM frame "
                      "%llu (pid=%u vpn=0x%llx) but the frame's "
                      "residency mask (0x%llx) misses the core — page "
                      "replacement would leave its private copies "
                      "stale",
                      who.c_str(),
                      static_cast<unsigned long long>(frame),
                      static_cast<unsigned>(pid),
                      static_cast<unsigned long long>(vpn),
                      static_cast<unsigned long long>(
                          backend.residencyMask(frame)));
            return true;
        });
    }

    // Every resident page was faulted in through DRAM, so the paging
    // device's directory must know its home.
    unsigned dram_page_bits = floorLog2(cfg.dramPageBytes);
    for (std::uint64_t frame = store.osFrames();
         frame < store.totalFrames(); ++frame) {
        if (!ipt.mapped(frame))
            continue;
        Pid pid = ipt.framePid(frame);
        std::uint64_t dvpn =
            (ipt.frameVpn(frame) * store.pageBytes(pid)) >>
            dram_page_bits;
        ctx.check(backend.dir.lookup(pid, dvpn), "ipt.dram_home",
                  "resident page pid=%u vpn=0x%llx (frame %llu) has "
                  "no DRAM home in the directory",
                  static_cast<unsigned>(pid),
                  static_cast<unsigned long long>(ipt.frameVpn(frame)),
                  static_cast<unsigned long long>(frame));
    }
}

Cycles
PagedHierarchy::fillFromBelow(Addr paddr, bool /*is_write*/)
{
    // The SRAM main memory is a plain byte-addressed RAM: an L1 miss
    // is a 4-bus-cycle (12 CPU cycle) transfer with no tag check.
    // Residency is guaranteed — translation faulted the page in
    // before the L1 was probed.
    ++evt.l2Accesses;
    store.touch(paddr / store.frameBytes());
    return l2HitCycles;
}

Cycles
PagedHierarchy::writebackBelow(Addr victim_addr)
{
    // A dirty L1 block drains into its SRAM page, dirtying the page;
    // the 9-cycle charge (no tag update) is applied by the caller.
    std::uint64_t frame = victim_addr / store.frameBytes();
    store.markDirty(frame);
    store.touch(frame);
    return 0;
}

std::uint64_t
PagedHierarchy::servicePageFault(Pid pid, std::uint64_t vpn,
                                 Tick &defer_ps_out)
{
    ++evt.l2Misses; // SRAM main-memory page faults
    PageFaultResult fault = store.handleFault(pid, vpn);

    // The fault handler body, interleaved through the hierarchy (the
    // faulting core runs it); its table probes hit the pinned reserve.
    AccessEngine::HandlerReplay<PagedHierarchy> replay(
        *this, &evt.faultOverheadRefs);
    HandlerTraces::walkPageFault(fault.probes, replay.runBytes, replay);

    // The replacement policy's frame-table scan (the clock hand's
    // travel) costs one cycle per inspected entry on top of the fixed
    // handler body.
    evt.l1iCycles += fault.scanCost;

    Tick defer = 0;
    std::uint64_t frame_bytes = store.frameBytes();

    // Flush each victim's TLB entry (§2.3) and its L1 blocks
    // (inclusion between L1 and the SRAM main memory).  Uniform
    // faults evict at most one equally-sized page and pair its dirty
    // write-back with the fill read in one back-to-back DRAM burst
    // (§6.3 pipelining hides the read's access latency behind the
    // write's data beats); per-pid faults may evict several smaller
    // pages, each priced as its own DRAM write.
    bool paired = store.uniform();
    bool write_victim = false;
    for (const PageVictim &victim : fault.victims) {
        Addr victim_base = victim.startFrame * frame_bytes;
        bool dirty = victim.dirty;
        // Ownership change (coherence-lite): exactly the cores in the
        // departing frame's residency mask may hold private copies —
        // invalidate each one's TLB entry, last-translation cache
        // ("tlb.trans_cache": a stale survivor is what
        // ModelFault::TransCacheStale injects) and L1 blocks, charging
        // the probe/flush cycles per resident core.  Non-resident
        // cores never translated the frame since its last assignment,
        // so they are untouched.  A single core's bit is always set:
        // the TLB install that follows every fault sets it.
        std::uint64_t mask = backend.residencyMask(victim.startFrame);
        for (unsigned c = 0; c < coreCount(); ++c) {
            if (!((mask >> c) & 1))
                continue;
            CoreFrontend &core = fe(static_cast<CoreId>(c));
            core.tlbUnit.invalidate(victim.pid, victim.vpn);
            RAMPAGE_TRACE_EVENT(TlbFlush, 0, victim.vpn, victim.pid);
            core.transCacheInvalidate();
            dirty |= invalidateL1RangeFor(core, victim_base, victim.bytes);
        }
        // No core holds copies of the reassigned frame any more.
        backend.clearResidency(victim.startFrame);
        if (paired) {
            write_victim |= dirty;
        } else if (dirty) {
            ++evt.dramWrites;
            noteDramTx(victim.bytes, true);
            Tick write_ps = dram().writePs(victim.bytes);
            addDramPs(write_ps);
            defer += write_ps;
        }
    }

    // Price the DRAM traffic for the faulted page streaming in (DRAM
    // homes are resolved inside the handler body — the translation is
    // off the critical path, §2.3, and DRAM is infinite so the lookup
    // always hits).
    std::uint64_t page_bytes = store.pageBytes(pid);
    backend.dir.physAddr(pid, vpn * page_bytes); // allocate the DRAM home
    if (paired && write_victim) {
        ++evt.dramWrites;
        ++evt.dramReads;
        noteDramTx(page_bytes, true);
        noteDramTx(page_bytes, false);
        Tick both = dramBurstPs(page_bytes, 2);
        addDramPs(both);
        defer += both;
    } else {
        ++evt.dramReads;
        noteDramTx(page_bytes, false);
        Tick read_ps = dram().readPs(page_bytes);
        addDramPs(read_ps);
        defer += read_ps;
    }

    defer_ps_out = pcfg.switchOnMiss ? defer : 0;
    // The fault, spanning its DRAM transfer, on the pager track.
    RAMPAGE_TRACE_EVENT(PageFault, defer, vpn, pid);
    return fault.frame;
}

} // namespace rampage
