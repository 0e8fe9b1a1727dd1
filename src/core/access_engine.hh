/**
 * @file
 * The per-reference access sequence, written once as a set of static
 * member templates over the hierarchy type.
 *
 * The sequencing — TLB lookup (behind a per-stream last-translation
 * cache), translation walk with its interleaved handler trace, fault
 * resolution, then the L1 + lower-level walk — is identical for every
 * hierarchy; only the policy hooks below differ.  Handler bodies are
 * replayed straight from their HandlerTraces walk, never built as a
 * reference list: HandlerReplay charges each run of same-block
 * fetches with one L1 probe plus bulk hit accounting, and each data
 * reference through cachedAccess.  Each concrete
 * hierarchy is `final` and instantiates the engine on itself (H = the
 * concrete class), so the compiler binds every hook statically —
 * which is what makes the simulator's inner loop cheap.  The hooks
 * are therefore plain (non-virtual) members of the concrete classes.
 * The one per-hierarchy cost, the L1 write-back, is not a hook but a
 * value each class passes to Hierarchy's constructor (l1WbCycles),
 * which the engine and Hierarchy::invalidateL1RangeFor both read.
 *
 * The hook contract, per concrete hierarchy H:
 *
 *  - `unsigned translationBits(Pid pid) const`: log2 of the
 *    translation page size for a pid.
 *  - `Hierarchy::TranslationWalk walkTranslation(Pid, vpn, probes)`:
 *    walk the translation structure on a TLB miss, recording the
 *    table words touched into `probes` (they parameterize the
 *    interleaved TLB-miss handler trace).  Runs *before* the handler
 *    trace; a walk that cannot resolve residency up front leaves
 *    `resolved` false and the frame comes from resolveFault() after
 *    the trace.
 *  - `std::uint64_t resolveFault(Pid, vpn, AccessOutcome &outcome)`:
 *    produce the frame for an unresolved translation, *after* the
 *    TLB-miss handler trace ran: the conventional directory allocates
 *    the DRAM frame; RAMpage services the SRAM page fault (setting
 *    `outcome`'s pageFault/deferPs).
 *  - `void noteFrameResidency(std::uint64_t frame)`: called right
 *    after a translation is installed in the active core's TLB.
 *    RAMpage sets the requesting core's bit in the frame's residency
 *    mask so page replacement knows which private copies (TLB
 *    entries, L1 lines) an ownership change must invalidate; the
 *    conventional hierarchy ignores it.
 *  - `Addr framePhysAddr(Pid, frame, offset)`: physical address of
 *    `offset` within a translated frame, with any per-reference side
 *    effects (RAMpage touches the frame's replacement state).
 *  - `Addr osPhysAddr(Addr vaddr) const`: physical address of an
 *    operating-system virtual address.  OS references bypass the TLB
 *    (MIPS kseg0 semantics): under RAMpage they map directly into the
 *    pinned SRAM reserve, conventionally into a fixed DRAM image.
 *  - `Cycles fillFromBelow(Addr paddr, bool is_write)`: lower-level
 *    access on an L1 miss — look up the L2 cache or SRAM main memory
 *    at `paddr` and fill.  Returns cycles; DRAM time accrues via
 *    addDramPs().
 *  - `Cycles writebackBelow(Addr victim_addr)`: a dirty L1 victim's
 *    write-back to the level below, on top of the l1WbCycles charge.
 *
 * The translation cache in front of the TLB (one entry per
 * instruction/data stream) is exactly state- and stat-neutral: it
 * only fires when a full lookup would hit the same TLB slot — the
 * slot's generation-stamped validity guarantees no mutation since
 * capture — and Tlb::recordHitAt() replays that hit bit-exactly.
 * Its staleness invariant ("tlb.trans_cache") is audited by
 * Hierarchy::auditState() and provable via ModelFault::
 * TransCacheStale.
 */

#ifndef RAMPAGE_CORE_ACCESS_ENGINE_HH
#define RAMPAGE_CORE_ACCESS_ENGINE_HH

#include <algorithm>

#include "core/hierarchy.hh"
#include "obs/trace_session.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace rampage
{

/**
 * Static-dispatch engine for the access sequence.  A friend of the
 * hierarchy classes: the bodies read and write their protected state
 * directly, exactly as the former Hierarchy member functions did.
 */
struct AccessEngine
{
    /** One benchmark-trace reference (Hierarchy::access contract). */
    template <class H>
    static AccessOutcome
    access(H &h, const MemRef &ref)
    {
        Cycles cyc_before =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        Tick dram_before = h.evt.dramPs;

        ++h.evt.refs;
        ++h.evt.traceRefs;

        AccessOutcome outcome;
        Addr paddr;
        if (ref.pid == osPid) {
            paddr = h.osPhysAddr(ref.vaddr);
        } else {
            CoreFrontend &fe = h.fe();
            unsigned page_bits = h.translationBits(ref.pid);
            std::uint64_t vpn = ref.vaddr >> page_bits;
            std::uint64_t frame;
            CoreFrontend::TranslationCache &tc =
                fe.transCache[ref.isInstr() ? 1 : 0]
                             [vpn &
                              (CoreFrontend::transCacheEntries - 1)];
            if (fe.transCacheOn && tc.valid && tc.pid == ref.pid &&
                tc.vpn == vpn &&
                tc.gen == fe.tlbUnit.generation()) {
                // Last-translation fast path: this stream's previous
                // reference translated this very page and the TLB has
                // not mutated since (its generation counter advances
                // on every insert/invalidate/flush/corruption), so
                // the full lookup would hit the same slot.
                // recordHitAt() replays that hit bit-exactly —
                // useCounter, hit count and LRU restamp — without the
                // way scan.
                frame = tc.frame;
                fe.tlbUnit.recordHitAt(tc.slot);
            } else {
                std::uint32_t slot = Tlb::noSlot;
                TlbLookup look = fe.tlbUnit.lookup(ref.pid, vpn, slot);
                if (look.hit) {
                    frame = look.frame;
                } else {
                    // TLB miss: walk the translation structure and
                    // interleave the handler trace (§4.3).  Under
                    // RAMpage the walk hits the pinned reserve and
                    // never references DRAM (§2.3) — unless the page
                    // itself has faulted out of the SRAM main memory;
                    // conventionally the probes are cacheable
                    // references into the page table's DRAM image and
                    // the frame is produced after the trace.
                    ++h.evt.tlbMisses;
                    fe.probeScratch.clear();
                    Hierarchy::TranslationWalk walk =
                        h.walkTranslation(ref.pid, vpn, fe.probeScratch);
                    HandlerReplay<H> replay(
                        h, &h.evt.tlbMissOverheadRefs);
                    HandlerTraces::walkTlbMiss(fe.probeScratch,
                                               replay.runBytes, replay);

                    if (walk.resolved)
                        frame = walk.frame;
                    else
                        frame = h.resolveFault(ref.pid, vpn, outcome);
                    fe.tlbUnit.insert(ref.pid, vpn, frame);
                    // Coherence-lite: the translation just installed
                    // makes this core a holder of private copies of
                    // the frame — record its residency bit so page
                    // replacement can find (and invalidate) them.
                    h.noteFrameResidency(frame);
                    RAMPAGE_TRACE_EVENT(TlbFill, 0, vpn, ref.pid);
                    slot = fe.tlbUnit.slotOf(ref.pid, vpn);
                }
                // Remember the translation just produced — slot and
                // generation are captured after the insert (and any
                // fault-path invalidations), so the entry retires
                // itself on the next TLB mutation and can never
                // outlive the slot backing it.
                tc.pid = ref.pid;
                tc.vpn = vpn;
                tc.frame = frame;
                tc.slot = slot;
                tc.gen = fe.tlbUnit.generation();
                tc.valid = slot != Tlb::noSlot;
            }
            paddr = h.framePhysAddr(ref.pid, frame,
                                    lowBits(ref.vaddr, page_bits));
        }

        cachedAccess(h, ref, paddr);

        Cycles cyc_after =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        Tick total = (cyc_after - cyc_before) * h.cycPs +
                     (h.evt.dramPs - dram_before);
        RAMPAGE_ASSERT(total >= outcome.deferPs,
                       "deferred time exceeds the access total");
        outcome.cpuPs = total - outcome.deferPs;
        return outcome;
    }

    /**
     * A contiguous run of references (Hierarchy::accessBatch
     * contract): per-reference outcomes are summed, and with
     * `stop_on_deferred_fault` the batch ends at (and includes) the
     * first reference that page-faults with overlappable transfer
     * time — the switch-on-miss scheduler must react to it before the
     * next reference runs.
     */
    template <class H>
    static BatchOutcome
    accessBatch(H &h, const MemRef *refs, std::size_t n,
                bool stop_on_deferred_fault)
    {
        BatchOutcome batch;
        for (std::size_t i = 0; i < n; ++i) {
            AccessOutcome out = access(h, refs[i]);
            ++batch.consumed;
            batch.cpuPs += out.cpuPs;
            batch.deferPs += out.deferPs;
            if (stop_on_deferred_fault && out.pageFault &&
                out.deferPs > 0) {
                batch.pageFault = true;
                break;
            }
        }
        return batch;
    }

    /**
     * The L1 + lower-level walk for a reference whose physical
     * address is known: charges issue time for fetches, probes L1,
     * and on a miss calls fillFromBelow() for the lower level.
     * @return cycles consumed (cycle-denominated only).
     */
    template <class H>
    static Cycles
    cachedAccess(H &h, const MemRef &ref, Addr paddr)
    {
        Cycles before =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;

        bool is_fetch = ref.isInstr();
        bool is_write = ref.isWrite();
        if (is_fetch) {
            // Instruction issue: the only cost of a fully-hitting
            // stream (§4.3: "where there are no misses, only
            // instruction fetches add to simulated run time").
            ++h.evt.instrFetches;
            h.evt.l1iCycles += Hierarchy::l1HitCycles;
        }
        // TLB and L1 data hits are fully pipelined: zero time.  Stores
        // enjoy perfect write buffering (§4.3), so a hitting store is
        // also free; it merely dirties the L1 block.

        CoreFrontend &fe = h.fe();
        SetAssocCache &l1 = is_fetch ? fe.l1iCache : fe.l1dCache;
        CacheAccessResult res = l1.access(paddr, is_write && !is_fetch);
        if (!res.hit) {
            if (is_fetch)
                ++h.evt.l1iMisses;
            else
                ++h.evt.l1dMisses;

            // A dirty L1 victim is written back to the level below
            // before the fill (write-back, write-allocate L1).
            if (res.victimValid && res.victimDirty) {
                ++h.evt.l1Writebacks;
                h.evt.l2Cycles += h.l1WbCycles;
                h.evt.l2Cycles += h.writebackBelow(res.victimAddr);
            }
            h.evt.l2Cycles +=
                h.fillFromBelow(paddr, is_write && !is_fetch);
        }
        return h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles -
               before;
    }

    /**
     * Walk sink that charges a handler body (HandlerTraces) through
     * the hierarchy.  Handler references never recurse into further
     * handler work: OS pages bypass the TLB and are always resident.
     *
     * A fetch run is charged with one L1 probe.  The run head goes
     * through cachedAccess like any reference; the other k - 1
     * fetches of the run are hits on the block the head left
     * resident, so their counters, issue cycles and L1I hit state are
     * added in bulk (SetAssocCache::hitRepeat).  That is exact: no
     * other reference runs inside a run, the head's fill evicts only
     * other blocks (an inclusion victim is never the block being
     * filled), and random-replacement draws and trace events happen
     * only on misses, which the head still takes per reference.  The
     * run width is the L1 block size, and osPhysAddr moves the OS
     * image by a multiple of HandlerTraces::maxRunBytes, so a virtual
     * run lies in one physical L1 block.
     */
    template <class H>
    struct HandlerReplay
    {
        /**
         * @param kind_refs the body's own overhead counter
         *        (EventCounts::tlbMissOverheadRefs or
         *        faultOverheadRefs), or nullptr for a context switch.
         */
        HandlerReplay(H &hier, std::uint64_t *kind_refs)
            : h(hier),
              runBytes(static_cast<unsigned>(
                  std::min(hier.cfg.l1BlockBytes,
                           HandlerTraces::maxRunBytes))),
              kindRefs(kind_refs)
        {
        }

        void
        fetchRun(Addr vaddr, unsigned k)
        {
            count(1);
            const Addr paddr = h.osPhysAddr(vaddr);
            cachedAccess(h, MemRef{vaddr, RefKind::IFetch, osPid}, paddr);
            const unsigned rest = k - 1;
            if (rest == 0)
                return;
            count(rest);
            h.evt.instrFetches += rest;
            h.evt.l1iCycles += Cycles{rest} * Hierarchy::l1HitCycles;
            h.fe().l1iCache.hitRepeat(paddr, rest);
        }

        void
        data(Addr vaddr, bool is_store)
        {
            count(1);
            cachedAccess(h,
                         MemRef{vaddr,
                                is_store ? RefKind::Store : RefKind::Load,
                                osPid},
                         h.osPhysAddr(vaddr));
        }

        void
        count(std::uint64_t n)
        {
            h.evt.refs += n;
            h.evt.overheadRefs += n;
            if (kindRefs)
                *kindRefs += n;
        }

        H &h;
        const unsigned runBytes; ///< the L1 block (at most maxRunBytes)
        std::uint64_t *const kindRefs;
    };

    /**
     * The ~400-reference context-switch trace (§4.6).
     * @return CPU time consumed.
     */
    template <class H>
    static Tick
    runContextSwitchTrace(H &h)
    {
        Cycles cyc_before =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        Tick dram_before = h.evt.dramPs;

        ++h.evt.contextSwitches;
        // A context switch changes the translating process: drop the
        // last-translation cache (part of its audited invariant).
        h.fe().transCacheInvalidate();
        HandlerReplay<H> replay(h, nullptr);
        h.handlers.walkContextSwitch(replay.runBytes, replay);

        Cycles cyc_after =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        return (cyc_after - cyc_before) * h.cycPs +
               (h.evt.dramPs - dram_before);
    }
};

} // namespace rampage

#endif // RAMPAGE_CORE_ACCESS_ENGINE_HH
