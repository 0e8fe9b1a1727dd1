#include "trace/handlers.hh"

namespace rampage
{

namespace
{

// Entry points of the three handler bodies within the OS text
// segment (4-byte instructions), packed so the whole handler text
// fits in one 4 KB page — the pinned operating-system reserve should
// stay close to the paper's §4.5 numbers, which budget only a few KB
// beyond the page table.
constexpr Addr tlbMissEntry = osVirtBase + 0x000;
constexpr Addr pageFaultEntry = osVirtBase + 0x100;
constexpr Addr contextSwitchEntry = osVirtBase + 0x300;
/**
 * Scheduler / process-table data: one 4 KB page above the text, so
 * the whole fixed OS image stays compact.
 */
constexpr Addr osDataBase = osVirtBase + 0x1000;

} // namespace

void
HandlerTraces::emitBody(std::vector<MemRef> &out, Addr entry,
                        unsigned instrs, const std::vector<Addr> &data,
                        double store_fraction)
{
    // Interleave the data references evenly through the fetch stream,
    // marking the trailing fraction of them as stores (handlers read
    // state, compute, then write results back).
    std::size_t n_data = data.size();
    std::size_t stores_from = n_data -
        static_cast<std::size_t>(static_cast<double>(n_data) *
                                 store_fraction);
    unsigned per_data = n_data > 0
                            ? (instrs / static_cast<unsigned>(n_data) + 1)
                            : instrs + 1;
    std::size_t next_data = 0;
    for (unsigned i = 0; i < instrs; ++i) {
        MemRef fetch;
        fetch.vaddr = entry + 4 * i;
        fetch.kind = RefKind::IFetch;
        fetch.pid = osPid;
        out.push_back(fetch);

        if (next_data < n_data && (i + 1) % per_data == 0) {
            MemRef dref;
            dref.vaddr = data[next_data];
            dref.kind = next_data >= stores_from ? RefKind::Store
                                                 : RefKind::Load;
            dref.pid = osPid;
            out.push_back(dref);
            ++next_data;
        }
    }
    // Any data refs not yet placed trail the body.
    for (; next_data < n_data; ++next_data) {
        MemRef dref;
        dref.vaddr = data[next_data];
        dref.kind = next_data >= stores_from ? RefKind::Store
                                             : RefKind::Load;
        dref.pid = osPid;
        out.push_back(dref);
    }
}

void
HandlerTraces::tlbMiss(std::vector<MemRef> &out,
                       const std::vector<Addr> &probes)
{
    emitBody(out, tlbMissEntry, tlbMissInstrs, probes, 0.0);
}

void
HandlerTraces::pageFault(std::vector<MemRef> &out,
                         const std::vector<Addr> &probes)
{
    // The fault body touches the supplied table entries plus its own
    // bookkeeping data (free lists, statistics, transfer descriptors).
    std::vector<Addr> data = probes;
    // Bookkeeping data sits above the 18 PCB slots (18 * 0x100).
    for (unsigned i = 0; i < pageFaultData; ++i)
        data.push_back(osDataBase + 0x1400 + 8 * i);
    emitBody(out, pageFaultEntry, pageFaultInstrs, data, 0.4);
}

void
HandlerTraces::contextSwitch(std::vector<MemRef> &out)
{
    // Save one process-control block, restore another: the data refs
    // rotate through a few PCB slots so consecutive switches touch
    // different table entries, as a real ready queue would.
    std::vector<Addr> data;
    data.reserve(contextSwitchData);
    Addr pcb_out = osDataBase + 0x100 * (switchSeq % 18);
    Addr pcb_in = osDataBase + 0x100 * ((switchSeq + 1) % 18);
    ++switchSeq;
    for (unsigned i = 0; i < contextSwitchData / 2; ++i)
        data.push_back(pcb_out + 8 * (i % 32));
    for (unsigned i = 0; i < contextSwitchData - contextSwitchData / 2;
         ++i)
        data.push_back(pcb_in + 8 * (i % 32));
    emitBody(out, contextSwitchEntry, contextSwitchInstrs, data, 0.5);
}

} // namespace rampage
