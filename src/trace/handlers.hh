/**
 * @file
 * Synthesis of operating-system handler reference traces.
 *
 * The paper charges all software memory-management work by
 * *interleaving traces of handler code* through the simulated
 * hierarchy (§4.3: "misses modeled by interleaving a trace of page
 * lookup software"; §4.6: "approximately 400 references per context
 * switch ... based on a standard textbook algorithm").  This module
 * produces equivalent handler reference streams:
 *
 *  - TLB miss handler: a hashed inverted-page-table lookup
 *    (instruction fetches through a short handler body plus probes of
 *    the supplied page-table entry addresses);
 *  - page-fault handler: victim selection, table update and transfer
 *    setup (the paper's Atlas comparison puts the whole miss at "a
 *    few hundred to over 1,000 instructions" including the transfer);
 *  - context switch: state save/restore and scheduler queue work
 *    (the paper's ~400 references).
 *
 * The body sizes are fixed: each is stated once, on its constant in
 * HandlerTraces.
 *
 * Callers supply the actual page-table entry addresses to probe, so
 * the handler's data traffic exercises the same physical structures
 * (the pinned inverted page table under RAMpage, an in-memory table
 * under the conventional hierarchy) as the real software would.
 */

#ifndef RAMPAGE_TRACE_HANDLERS_HH
#define RAMPAGE_TRACE_HANDLERS_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace rampage
{

/**
 * Generator of handler reference streams.  All references carry
 * osPid; the OS code/data pages they touch are pinned in the SRAM
 * main memory under RAMpage and are ordinary cacheable pages under
 * the conventional hierarchy.  The handler text starts at osVirtBase.
 */
class HandlerTraces
{
  public:
    /** TLB-miss body: 18 fetches, plus one load per supplied probe. */
    static constexpr unsigned tlbMissInstrs = 18;
    /**
     * Page-fault body: 56 fetches and 10 bookkeeping data references,
     * plus one per supplied probe.
     */
    static constexpr unsigned pageFaultInstrs = 56;
    static constexpr unsigned pageFaultData = 10;
    /** Context-switch body: 300 fetches and 100 data references. */
    static constexpr unsigned contextSwitchInstrs = 300;
    static constexpr unsigned contextSwitchData = 100;
    /** Reference count of one context switch (§4.6: ~400). */
    static constexpr std::size_t contextSwitchLength =
        contextSwitchInstrs + contextSwitchData;

    /**
     * Append the TLB-miss handler body.
     * @param out receives the references.
     * @param probes page-table entry addresses the lookup touches
     *        (hash bucket head plus any chain links).
     */
    void tlbMiss(std::vector<MemRef> &out,
                 const std::vector<Addr> &probes);

    /**
     * Append the page-fault handler body.
     * @param probes page-table entries read/written (faulting entry,
     *        victim entry, free-frame bookkeeping).
     */
    void pageFault(std::vector<MemRef> &out,
                   const std::vector<Addr> &probes);

    /** Append the context-switch body (§4.6). */
    void contextSwitch(std::vector<MemRef> &out);

  private:
    /**
     * Emit a handler body: `instrs` sequential fetches from
     * `entry`, with the `data` addresses interleaved evenly.
     */
    void emitBody(std::vector<MemRef> &out, Addr entry, unsigned instrs,
                  const std::vector<Addr> &data, double store_fraction);

    std::uint64_t switchSeq = 0; ///< rotates process-table slots
};

} // namespace rampage

#endif // RAMPAGE_TRACE_HANDLERS_HH
