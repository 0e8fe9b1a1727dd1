/**
 * @file
 * Conventional cache hierarchy (paper §4.4 baseline and §4.7 2-way):
 * split L1 over an inclusive L2 cache over Direct Rambus DRAM, with a
 * TLB mapping virtual pages to DRAM physical frames (fixed 4 KB
 * pages) and TLB misses serviced by an interleaved page-table-lookup
 * trace.
 */

#ifndef RAMPAGE_CORE_CONVENTIONAL_HH
#define RAMPAGE_CORE_CONVENTIONAL_HH

#include <memory>

#include "cache/column_assoc.hh"
#include "cache/victim_cache.hh"
#include "core/hierarchy.hh"

namespace rampage
{

/**
 * The conventional (cache-based) hierarchy.  `final`, with the
 * AccessEngine instantiated on it, so every policy hook binds
 * statically.
 */
class ConventionalHierarchy final : public Hierarchy
{
  public:
    /** L1 write-back to the L2: tag update + transfer (§4.3). */
    static constexpr Cycles l1WritebackCycles = 12;

    explicit ConventionalHierarchy(const ConventionalConfig &config);

    std::string name() const override;
    std::string l2Name() const override { return "L2"; }

    /** Statically-dispatched hot path (see access_engine.hh). */
    AccessOutcome access(const MemRef &ref) override;
    BatchOutcome accessBatch(const MemRef *refs, std::size_t n,
                             bool stop_on_deferred_fault) override;
    Tick runContextSwitchTrace() override;

    const SetAssocCache &l2() const { return l2Cache; }

    /** Column-associative L2 statistics (L2Style::ColumnAssoc only). */
    const ColumnAssocStats &columnStats() const;

    /**
     * Base audit plus: L1 inclusion in the L2 (every valid L1 block
     * present below), the L2's own self-audit, TLB entries matching
     * the page directory, and the directory self-audit.
     */
    void auditState(AuditContext &ctx) const override;

  protected:
    friend class FaultInjector;
    friend struct AccessEngine;

    // --- AccessEngine policy hooks (contract: access_engine.hh) ----
    Cycles fillFromBelow(Addr paddr, bool is_write);
    Cycles writebackBelow(Addr victim_addr);

    // The address-formation hooks run on every reference; they are
    // inline so the statically-bound AccessEngine instantiation
    // flattens them into the hot loop.
    Addr
    osPhysAddr(Addr vaddr) const
    {
        // Page-table probe addresses are already physical (the
        // table's DRAM image lives above 1 << 40); handler code/data
        // is OS-virtual and maps into a fixed image at osImageBase.
        if (vaddr >= (Addr{1} << 40))
            return vaddr;
        return osImageBase + (vaddr - osVirtBase);
    }

    unsigned
    translationBits(Pid /*pid*/) const
    {
        return dramPageBits;
    }

    Addr
    framePhysAddr(Pid /*pid*/, std::uint64_t frame, Addr offset)
    {
        return (frame << dramPageBits) | offset;
    }

    TranslationWalk walkTranslation(Pid pid, std::uint64_t vpn,
                                    std::vector<Addr> &probes);
    std::uint64_t resolveFault(Pid pid, std::uint64_t vpn,
                               AccessOutcome &outcome);

    /** One shared DRAM frame space: no per-core residency to track. */
    void noteFrameResidency(std::uint64_t /*frame*/) {}

  private:
    /** Physical base of the OS handler code/data image in DRAM. */
    static constexpr Addr osImageBase = Addr{1} << 41;
    // Handler fetch runs are formed on virtual addresses
    // (AccessEngine::HandlerReplay).
    static_assert(osImageBase % HandlerTraces::maxRunBytes == 0,
                  "the OS image must keep virtual runs in one L1 block");

    ConventionalConfig ccfg;
    SetAssocCache l2Cache;
    std::unique_ptr<ColumnAssocCache> columnL2;
    std::unique_ptr<VictimCache> victim;
    unsigned dramPageBits;
};

} // namespace rampage

#endif // RAMPAGE_CORE_CONVENTIONAL_HH
