#include "core/conventional.hh"

#include "core/access_engine.hh"
#include "obs/trace_session.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{

namespace
{

CacheParams
l2Params(const ConventionalConfig &cfg)
{
    CacheParams params;
    params.name = "L2";
    params.sizeBytes = cfg.l2SizeBytes;
    params.blockBytes = cfg.l2BlockBytes;
    params.assoc = cfg.l2Assoc;
    params.repl = cfg.l2Repl;
    params.seed = 103;
    return params;
}

} // namespace

ConventionalHierarchy::ConventionalHierarchy(
    const ConventionalConfig &config)
    : Hierarchy(config.common, l1WritebackCycles),
      ccfg(config),
      l2Cache(l2Params(config))
{
    if (ccfg.l2BlockBytes < cfg.l1BlockBytes)
        throw ConfigError("L2 block (%llu) smaller than L1 block (%llu)",
                          static_cast<unsigned long long>(ccfg.l2BlockBytes),
                          static_cast<unsigned long long>(cfg.l1BlockBytes));
    dramPageBits = floorLog2(cfg.dramPageBytes);
    if (ccfg.l2Style == ConventionalConfig::L2Style::ColumnAssoc) {
        columnL2 = std::make_unique<ColumnAssocCache>(ccfg.l2SizeBytes,
                                                      ccfg.l2BlockBytes);
        if (ccfg.victimEntries > 0)
            throw ConfigError("victim cache is not modelled behind a "
                              "column-associative L2");
    }
    if (ccfg.victimEntries > 0)
        victim = std::make_unique<VictimCache>(ccfg.victimEntries,
                                               ccfg.l2BlockBytes);

    // The column-associative L2 keeps its own statistics struct; the
    // plain set-associative L2 registers like the L1s.
    if (columnL2) {
        const ColumnAssocStats &cs = columnL2->stats();
        statsReg.addCounter("l2.first_hits",
                            "L2 hits on the primary probe",
                            &cs.firstHits);
        statsReg.addCounter("l2.rehash_hits",
                            "L2 hits on the alternate probe",
                            &cs.rehashHits);
        statsReg.addCounter("l2.misses", "L2 double misses", &cs.misses);
        statsReg.addCounter("l2.in_place_replacements",
                            "L2 case-2 fast replaces",
                            &cs.inPlaceReplacements);
    } else {
        l2Cache.registerStats(statsReg, "l2");
    }
    if (victim) {
        statsReg.addFormula(
            "l2.victim_hits", "victim-cache extract hits",
            [this] { return static_cast<double>(victim->hits()); });
        statsReg.addFormula(
            "l2.victim_lookups", "victim-cache lookups",
            [this] { return static_cast<double>(victim->lookups()); });
    }
}

std::string
ConventionalHierarchy::name() const
{
    if (columnL2)
        return "column-assoc L2";
    if (ccfg.l2Assoc == 1)
        return victim ? "baseline+victim" : "baseline";
    return std::to_string(ccfg.l2Assoc) + "-way L2";
}

// Statically-bound hot path: the class is `final`, so these
// instantiations resolve every policy hook at compile time.
AccessOutcome
ConventionalHierarchy::access(const MemRef &ref)
{
    return AccessEngine::access(*this, ref);
}

BatchOutcome
ConventionalHierarchy::accessBatch(const MemRef *refs, std::size_t n,
                                   bool stop_on_deferred_fault)
{
    return AccessEngine::accessBatch(*this, refs, n,
                                     stop_on_deferred_fault);
}

Tick
ConventionalHierarchy::runContextSwitchTrace()
{
    return AccessEngine::runContextSwitchTrace(*this);
}

const ColumnAssocStats &
ConventionalHierarchy::columnStats() const
{
    if (!columnL2)
        throw ConfigError("columnStats() requires L2Style::ColumnAssoc");
    return columnL2->stats();
}

Hierarchy::TranslationWalk
ConventionalHierarchy::walkTranslation(Pid pid, std::uint64_t vpn,
                                       std::vector<Addr> &probes)
{
    // The probes are cacheable physical references into the page
    // table's memory image; the frame itself is produced after the
    // interleaved lookup trace (resolveFault).
    backend.dir.probeAddrs(pid, vpn, probes);
    return TranslationWalk{};
}

std::uint64_t
ConventionalHierarchy::resolveFault(Pid pid, std::uint64_t vpn,
                                    AccessOutcome & /*outcome*/)
{
    // DRAM is infinite (no disk paging is modelled): the "fault" is
    // just the directory allocating or returning the physical frame.
    return backend.dir.frameOf(pid, vpn);
}

void
ConventionalHierarchy::auditState(AuditContext &ctx) const
{
    Hierarchy::auditState(ctx);
    if (!columnL2)
        l2Cache.auditState(ctx, "l2");
    backend.dir.auditState(ctx);

    for (unsigned c = 0; c < coreCount(); ++c) {
        const CoreFrontend &core = fe(c);
        const std::string who =
            coreCount() == 1 ? std::string()
                             : "core" + std::to_string(c) + " ";

        // Inclusion: the L2 is maintained inclusive of every core's
        // L1s (its evictions invalidate their L1 blocks before
        // departing), so a valid L1 block absent below is stale data.
        auto check_inclusion = [&](const SetAssocCache &l1,
                                   const char *label) {
            l1.forEachValidBlock([&](Addr addr, bool) {
                bool below = columnL2 ? columnL2->probe(addr)
                                      : l2Cache.probe(addr);
                ctx.check(below, "inclusion.l1",
                          "%s%s block 0x%llx is not present in the L2",
                          who.c_str(), label,
                          static_cast<unsigned long long>(addr));
                return true;
            });
        };
        check_inclusion(core.l1iCache, "l1i");
        check_inclusion(core.l1dCache, "l1d");

        // Every TLB entry caches a directory translation; frames are
        // never reclaimed (DRAM is infinite), so the entry must still
        // match exactly.
        core.tlbUnit.forEachValidEntry([&](Pid pid, std::uint64_t vpn,
                                           std::uint64_t frame) {
            std::uint64_t home = 0;
            bool backed =
                backend.dir.lookup(pid, vpn, &home) && home == frame;
            ctx.check(backed, "tlb.backing",
                      "%sTLB translates pid=%u vpn=0x%llx to DRAM "
                      "frame %llu, but the page directory says %s",
                      who.c_str(), static_cast<unsigned>(pid),
                      static_cast<unsigned long long>(vpn),
                      static_cast<unsigned long long>(frame),
                      backend.dir.lookup(pid, vpn, &home)
                          ? std::to_string(home).c_str()
                          : "unallocated");
            return true;
        });
    }
}

Cycles
ConventionalHierarchy::fillFromBelow(Addr paddr, bool /*is_write*/)
{
    Cycles cycles = l2HitCycles;
    ++evt.l2Accesses;

    if (columnL2) {
        // Column-associative path: a rehash probe (hit via the
        // alternate set, or a double miss) costs one more L2 access.
        bool rehash_probe = false;
        CacheAccessResult col =
            columnL2->access(paddr, false, rehash_probe);
        if (rehash_probe)
            cycles += l2HitCycles;
        if (col.hit)
            return cycles;
        ++evt.l2Misses;
        RAMPAGE_TRACE_EVENT(L2Miss, 0, paddr, 0);
        if (col.victimValid) {
            bool dirty = col.victimDirty;
            dirty |= invalidateL1Range(col.victimAddr, ccfg.l2BlockBytes);
            if (dirty) {
                ++evt.dramWrites;
                noteDramTx(ccfg.l2BlockBytes, true);
                addDramPs(dram().writePs(ccfg.l2BlockBytes));
            }
        }
        ++evt.dramReads;
        noteDramTx(ccfg.l2BlockBytes, false);
        addDramPs(dram().readPs(ccfg.l2BlockBytes));
        return cycles;
    }

    CacheAccessResult res = l2Cache.access(paddr, false);
    if (res.hit)
        return cycles;

    ++evt.l2Misses;
    RAMPAGE_TRACE_EVENT(L2Miss, 0, paddr, 0);

    // Handle the departing L2 victim first: maintain inclusion by
    // invalidating its L1 blocks, then write it to DRAM when dirty.
    if (res.victimValid) {
        bool dirty = res.victimDirty;
        dirty |= invalidateL1Range(res.victimAddr, ccfg.l2BlockBytes);
        if (victim) {
            VictimCache::Displaced out =
                victim->insert(res.victimAddr, dirty);
            if (out.valid && out.dirty) {
                ++evt.dramWrites;
                noteDramTx(ccfg.l2BlockBytes, true);
                addDramPs(dram().writePs(ccfg.l2BlockBytes));
            }
        } else if (dirty) {
            ++evt.dramWrites;
            noteDramTx(ccfg.l2BlockBytes, true);
            addDramPs(dram().writePs(ccfg.l2BlockBytes));
        }
    }

    // Fill: either swapped back from the victim cache (an extra
    // L2-speed transfer) or streamed from DRAM.
    bool filled = false;
    if (victim) {
        VictimCache::Extracted hit = victim->extract(
            l2Cache.blockAddr(paddr));
        if (hit.hit) {
            ++evt.victimCacheHits;
            cycles += l2HitCycles;
            if (hit.dirty)
                l2Cache.markDirty(paddr);
            filled = true;
        }
    }
    if (!filled) {
        ++evt.dramReads;
        noteDramTx(ccfg.l2BlockBytes, false);
        addDramPs(dram().readPs(ccfg.l2BlockBytes));
    }
    return cycles;
}

Cycles
ConventionalHierarchy::writebackBelow(Addr victim_addr)
{
    // The L1 victim's block should be present in L2 (inclusion); the
    // 12-cycle write-back charge covers the tag update and transfer.
    if (columnL2) {
        if (columnL2->probe(victim_addr)) {
            columnL2->markDirty(victim_addr);
            return 0;
        }
    } else if (l2Cache.probe(victim_addr)) {
        l2Cache.markDirty(victim_addr);
        return 0;
    }
    // Inclusion anomaly (should not happen): write straight to DRAM.
    ++evt.dramWrites;
    noteDramTx(cfg.l1BlockBytes, true);
    addDramPs(dram().writePs(cfg.l1BlockBytes));
    return 0;
}

} // namespace rampage
