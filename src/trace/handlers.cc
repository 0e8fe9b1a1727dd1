#include "trace/handlers.hh"

namespace rampage
{

namespace
{

/** Expands a walk into one MemRef per reference. */
struct RefSink
{
    std::vector<MemRef> &out;

    void
    fetchRun(Addr vaddr, unsigned k)
    {
        for (unsigned j = 0; j < k; ++j)
            out.push_back(MemRef{vaddr + 4 * j, RefKind::IFetch, osPid});
    }

    void
    data(Addr vaddr, bool is_store)
    {
        out.push_back(MemRef{
            vaddr, is_store ? RefKind::Store : RefKind::Load, osPid});
    }
};

/** One fetch per run: the reference-by-reference view of a body. */
constexpr unsigned fetchBytes = 4;

} // namespace

void
HandlerTraces::tlbMiss(std::vector<MemRef> &out,
                       const std::vector<Addr> &probes)
{
    RefSink sink{out};
    walkTlbMiss(probes, fetchBytes, sink);
}

void
HandlerTraces::pageFault(std::vector<MemRef> &out,
                         const std::vector<Addr> &probes)
{
    RefSink sink{out};
    walkPageFault(probes, fetchBytes, sink);
}

void
HandlerTraces::contextSwitch(std::vector<MemRef> &out)
{
    RefSink sink{out};
    walkContextSwitch(fetchBytes, sink);
}

} // namespace rampage
