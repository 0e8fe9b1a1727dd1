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

#include <algorithm>
#include <cstddef>
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
 *
 * Each body is written once, as a walk that yields *fetch runs* and
 * *data references* in trace order.  A fetch run (vaddr, k) is k
 * sequential fetches from vaddr that share one `run_bytes`-aligned
 * block with no data reference between them.  The vector emitters
 * (tlbMiss, pageFault, contextSwitch) walk at a 4-byte run width, so
 * each run is one fetch; the access engine walks at the L1 block size
 * and charges each run with one L1 probe (src/core/access_engine.hh).
 *
 * A walk sink provides
 *   - `void fetchRun(Addr vaddr, unsigned k)` and
 *   - `void data(Addr vaddr, bool is_store)`.
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
     * Widest run a walk accepts.  osVirtBase is a multiple of it, so
     * a run-aligned block of the OS image is run-aligned wherever the
     * image is placed at a multiple of it too.
     */
    static constexpr std::uint64_t maxRunBytes = 64 * kib;
    static_assert(osVirtBase % maxRunBytes == 0,
                  "the OS image base must be run-aligned");

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

    /**
     * Walk the TLB-miss body into `sink` (see the class comment).
     * @param run_bytes run width: a power of two in [4, maxRunBytes].
     */
    template <class Sink>
    static void
    walkTlbMiss(const std::vector<Addr> &probes, unsigned run_bytes,
                Sink &sink)
    {
        walkBody(
            tlbMissEntry, tlbMissInstrs, probes.size(),
            [&probes](std::size_t i) { return probes[i]; }, 0.0,
            run_bytes, sink);
    }

    /**
     * Walk the page-fault body: the supplied table entries, then its
     * own bookkeeping data (free lists, statistics, transfer
     * descriptors) above the 18 PCB slots (18 * 0x100).
     */
    template <class Sink>
    static void
    walkPageFault(const std::vector<Addr> &probes, unsigned run_bytes,
                  Sink &sink)
    {
        const std::size_t n_probes = probes.size();
        walkBody(
            pageFaultEntry, pageFaultInstrs, n_probes + pageFaultData,
            [&probes, n_probes](std::size_t i) {
                return i < n_probes
                           ? probes[i]
                           : osDataBase + 0x1400 + 8 * (i - n_probes);
            },
            0.4, run_bytes, sink);
    }

    /**
     * Walk the context-switch body: save one process-control block,
     * restore another.  The data references rotate through 18 PCB
     * slots, so consecutive switches touch different table entries,
     * as a real ready queue would.
     */
    template <class Sink>
    void
    walkContextSwitch(unsigned run_bytes, Sink &sink)
    {
        constexpr std::size_t half = contextSwitchData / 2;
        const Addr pcb_out = osDataBase + 0x100 * (switchSeq % 18);
        const Addr pcb_in = osDataBase + 0x100 * ((switchSeq + 1) % 18);
        ++switchSeq;
        walkBody(
            contextSwitchEntry, contextSwitchInstrs, contextSwitchData,
            [pcb_out, pcb_in](std::size_t i) {
                return i < half ? pcb_out + 8 * (i % 32)
                                : pcb_in + 8 * ((i - half) % 32);
            },
            0.5, run_bytes, sink);
    }

  private:
    // Entry points of the three handler bodies within the OS text
    // segment (4-byte instructions), packed so the whole handler text
    // fits in one 4 KB page: the pinned operating-system reserve
    // stays close to the paper's §4.5 numbers, which budget only a
    // few KB beyond the page table.
    static constexpr Addr tlbMissEntry = osVirtBase + 0x000;
    static constexpr Addr pageFaultEntry = osVirtBase + 0x100;
    static constexpr Addr contextSwitchEntry = osVirtBase + 0x300;
    /**
     * Scheduler / process-table data: one 4 KB page above the text, so
     * the whole fixed OS image stays compact.
     */
    static constexpr Addr osDataBase = osVirtBase + 0x1000;

    /**
     * Walk one body: `instrs` sequential fetches from `entry`, with
     * the `n_data` references `data_at(0..n_data-1)` interleaved
     * evenly (one after every `per_data` fetches, any left over
     * trailing the body) and the trailing `store_fraction` of them
     * stores: handlers read state, compute, then write results back.
     * A run ends at a run-aligned block boundary, at a data slot or
     * at the end of the body.
     */
    template <class DataAt, class Sink>
    static void
    walkBody(Addr entry, unsigned instrs, std::size_t n_data,
             DataAt data_at, double store_fraction, unsigned run_bytes,
             Sink &sink)
    {
        const std::size_t stores_from =
            n_data - static_cast<std::size_t>(
                         static_cast<double>(n_data) * store_fraction);
        const unsigned per_data =
            n_data > 0 ? (instrs / static_cast<unsigned>(n_data) + 1)
                       : instrs + 1;
        const Addr run_mask = run_bytes - 1;
        std::size_t next_data = 0;
        unsigned i = 0;
        while (i < instrs) {
            const Addr vaddr = entry + 4 * i;
            // One past the run's last fetch: the block's end, ...
            unsigned end = i + static_cast<unsigned>(
                                   (run_bytes - (vaddr & run_mask)) / 4);
            // ... the next data slot, or the body's end.
            if (next_data < n_data)
                end = std::min(end, (i / per_data + 1) * per_data);
            end = std::min(end, instrs);
            sink.fetchRun(vaddr, end - i);
            if (next_data < n_data && end % per_data == 0) {
                sink.data(data_at(next_data), next_data >= stores_from);
                ++next_data;
            }
            i = end;
        }
        for (; next_data < n_data; ++next_data)
            sink.data(data_at(next_data), next_data >= stores_from);
    }

    std::uint64_t switchSeq = 0; ///< rotates process-table slots
};

} // namespace rampage

#endif // RAMPAGE_TRACE_HANDLERS_HH
