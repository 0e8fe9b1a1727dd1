/**
 * @file
 * Memory-hierarchy base: the machinery shared by the conventional
 * cache hierarchy and RAMpage — the split direct-mapped L1, the TLB,
 * the Direct Rambus channel, handler-trace interleaving and event
 * accounting.
 *
 * A hierarchy consumes references one at a time and reports, per
 * reference, how much CPU-inline time it cost and how much DRAM
 * transfer time a context-switch-on-miss scheduler could overlap.
 * Which references hit or miss is independent of the issue rate, so
 * one behavioural run can be re-priced across the paper's whole
 * 200 MHz - 4 GHz sweep (see src/core/events.hh).
 */

#ifndef RAMPAGE_CORE_HIERARCHY_HH
#define RAMPAGE_CORE_HIERARCHY_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/config.hh"
#include "core/core_frontend.hh"
#include "core/cost_model.hh"
#include "core/events.hh"
#include "core/memory_backend.hh"
#include "stats/registry.hh"
#include "tlb/tlb.hh"
#include "trace/handlers.hh"
#include "trace/record.hh"

namespace rampage
{

class AuditContext;
class FaultInjector;
struct AccessEngine;

/** Per-reference outcome. */
struct AccessOutcome
{
    /** Time the CPU is busy or blocked in-line for this reference. */
    Tick cpuPs = 0;
    /**
     * DRAM page-transfer time initiated by this reference that a
     * context-switch-on-miss scheduler could overlap with other work
     * (zero for conventional hierarchies, which block on every DRAM
     * transaction).
     */
    Tick deferPs = 0;
    /** The reference page-faulted out of the SRAM main memory. */
    bool pageFault = false;
};

/** Summed outcome of a contiguous batch of references. */
struct BatchOutcome
{
    /** References consumed (== n unless the batch stopped early). */
    std::size_t consumed = 0;
    /** Sum of the per-reference cpuPs, in order. */
    Tick cpuPs = 0;
    /** Sum of the per-reference deferPs (at most one nonzero). */
    Tick deferPs = 0;
    /**
     * The last consumed reference page-faulted with deferrable
     * transfer time (only set when the caller asked to stop there).
     */
    bool pageFault = false;
};

/** Abstract simulated memory hierarchy. */
class Hierarchy
{
  public:
    /**
     * L1 read hit and inclusion-probe cost.  Hits are pipelined, so
     * it is charged only for instruction issue and probes (§4.3).
     */
    static constexpr Cycles l1HitCycles = 1;
    /**
     * L1 miss penalty to the L2 cache or SRAM main memory: 4 cycles
     * of the 1/3-rate 128-bit bus = 12 CPU cycles, including tag
     * check and transfer to L1 (§4.3).
     */
    static constexpr Cycles l2HitCycles = 12;

    /**
     * @param l1_writeback_cycles the concrete hierarchy's L1
     *        write-back cost (12 conventional, 9 RAMpage).
     */
    Hierarchy(const CommonConfig &config, Cycles l1_writeback_cycles);
    virtual ~Hierarchy() = default;

    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;

    /**
     * Process one benchmark-trace reference.  The sequencing is the
     * same for every hierarchy — TLB lookup (behind a one-entry
     * last-translation cache), on a miss the translation walk with
     * its interleaved handler trace, fault resolution, then the L1 +
     * lower-level walk — so it lives once in AccessEngine
     * (src/core/access_engine.hh); each `final` subclass implements
     * this with the engine instantiated on itself, so its policy
     * hooks bind statically on the hot path.
     */
    virtual AccessOutcome access(const MemRef &ref) = 0;

    /**
     * Process a contiguous batch of references, summing the per-ref
     * outcomes.  With `stop_on_deferred_fault` the batch stops after
     * (and includes) the first reference whose fault produced
     * deferrable transfer time, so a switch-on-miss scheduler can
     * react before the next reference runs.  Exactly equivalent to
     * calling access() `consumed` times.
     */
    virtual BatchOutcome accessBatch(const MemRef *refs, std::size_t n,
                                     bool stop_on_deferred_fault) = 0;

    /**
     * Interleave the ~400-reference context-switch trace (§4.6) and
     * drop the last-translation cache (the running process changes).
     * @return CPU time consumed.
     */
    virtual Tick runContextSwitchTrace() = 0;

    /**
     * Disable (or re-enable) the per-stream last-translation cache
     * in front of the TLB (every core's).  The cache is exactly
     * state- and stat-neutral, so runs with it off are bit-identical
     * — this switch exists for the equivalence test that proves it.
     */
    void
    setTranslationCacheEnabled(bool on)
    {
        for (auto &core : frontends) {
            core->transCacheOn = on;
            if (!on)
                core->transCacheInvalidate();
        }
    }

    // --- the core/memory seam ---------------------------------------
    /** Configured CPU cores (one CoreFrontend each). */
    unsigned
    coreCount() const
    {
        return static_cast<unsigned>(frontends.size());
    }

    /**
     * Select the frontend subsequent access()/accessBatch()/handler
     * calls run against.  The multicore Simulator switches this at
     * every scheduling decision; single-core runs never touch it
     * (core 0 is active from construction).
     */
    void
    activateCore(CoreId core)
    {
        activeFe = frontends[core].get();
    }

    /** The frontend the access sequence currently runs against. */
    CoreFrontend &fe() { return *activeFe; }
    const CoreFrontend &fe() const { return *activeFe; }

    /** A specific core's frontend. */
    CoreFrontend &fe(CoreId core) { return *frontends[core]; }
    const CoreFrontend &fe(CoreId core) const
    {
        return *frontends[core];
    }

    /** The shared memory-side state behind every frontend. */
    MemoryBackend &memoryBackend() { return backend; }
    const MemoryBackend &memoryBackend() const { return backend; }

    /** Display name ("baseline", "2-way L2", "RAMpage", ...). */
    virtual std::string name() const = 0;

    /** Label for the third hierarchy level ("L2" or "SRAM MM"). */
    virtual std::string l2Name() const = 0;

    const EventCounts &counts() const { return evt; }
    const CommonConfig &commonConfig() const { return cfg; }
    /** The active core's components (single-core: the only core's). */
    const Tlb &tlb() const { return fe().tlbUnit; }
    const SetAssocCache &l1i() const { return fe().l1iCache; }
    const SetAssocCache &l1d() const { return fe().l1dCache; }
    /** The DRAM page directory (paging device / physical allocator). */
    const DramDirectory &directory() const { return backend.dir; }

    /**
     * The hierarchy's named-stats registry.  Every component registers
     * at construction; dump with dumpText()/dumpJson() or freeze with
     * snapshot() (SimResult carries a snapshot per run).
     */
    const StatsRegistry &statsRegistry() const { return statsReg; }

    /** Price this run's events at an issue rate (blocking runs). */
    TimeBreakdown breakdown(std::uint64_t issue_hz) const;

    /** Total simulated time at an issue rate (blocking runs). */
    Tick totalPs(std::uint64_t issue_hz) const;

    /**
     * Walk live model state and verify this hierarchy's invariants
     * into `ctx` (see src/core/audit.hh).  The base class audits the
     * shared components (L1s, TLB) and the event-count conservation
     * identities; overrides add the cross-component invariants that
     * need the level below (inclusion, translation backing, page
     * tables).  Must be side-effect-free: an audited run produces
     * byte-identical simulation output.
     */
    virtual void auditState(AuditContext &ctx) const;

  protected:
    /** Deterministic model-state corruption hooks (tests/CI only). */
    friend class FaultInjector;
    /** The statically-dispatched access bodies (access_engine.hh). */
    friend struct AccessEngine;
    /**
     * Outcome of a translation walk on a TLB miss (the
     * walkTranslation policy hook, see access_engine.hh).
     */
    struct TranslationWalk
    {
        bool resolved = false; ///< the page is resident; frame is set
        std::uint64_t frame = 0;
    };

    /**
     * Invalidate every core's L1 blocks within [base, base+bytes),
     * charging one probe cycle per block per cache, and the L1
     * write-back cost for each dirty data block flushed.
     * @return true when a dirty L1D block was flushed (the enclosing
     *         victim must be written to DRAM even if clean below).
     */
    bool invalidateL1Range(Addr base, std::uint64_t bytes);

    /** Accrue DRAM transaction time. */
    void
    addDramPs(Tick ps)
    {
        evt.dramPs += ps;
    }

    /**
     * Note one DRAM transaction for observability: records `bytes` in
     * the dram.tx_bytes histogram and traces it on the Dram channel.
     * Call alongside the dramReads/dramWrites accounting; timing is
     * still charged separately via addDramPs().
     */
    void noteDramTx(std::uint64_t bytes, bool is_write);

    /**
     * The selected DRAM timing model (§3.3), resolved once at
     * construction — dram() sits on the miss path.
     */
    const DramModel &dram() const { return backend.dram(); }

    /**
     * Price `count` back-to-back page-sized transactions: a pipelined
     * Rambus channel (§6.3) overlaps their access latencies; every
     * other configuration serializes them.
     */
    Tick dramBurstPs(std::uint64_t bytes, std::uint64_t count) const;

    /**
     * Invalidate one core's L1 blocks within [base, base+bytes).
     * The page-replacement path calls this only for cores whose
     * residency bit is set on the reassigned frame (coherence-lite);
     * invalidateL1Range() is the every-core wrapper.
     */
    bool invalidateL1RangeFor(CoreFrontend &core, Addr base,
                              std::uint64_t bytes);

    CommonConfig cfg;
    /** L1 write-back cycles for this hierarchy (12 conv., 9 RAMpage). */
    const Cycles l1WbCycles;
    Tick cycPs;          ///< cycle time at the configured issue rate
    MemoryBackend backend; ///< shared memory-side state (all cores)
    /** One frontend per configured core (§4.3 CPU model each). */
    std::vector<std::unique_ptr<CoreFrontend>> frontends;
    /** The frontend access()/handler calls run against (never null). */
    CoreFrontend *activeFe = nullptr;
    HandlerTraces handlers;
    EventCounts evt;
    StatsRegistry statsReg;    ///< named stats, filled at construction

    /** Per-stream translation cache (lives in each CoreFrontend). */
    using TranslationCache = CoreFrontend::TranslationCache;

    static constexpr Addr noAddr = ~Addr{0};
};

} // namespace rampage

#endif // RAMPAGE_CORE_HIERARCHY_HH
