/**
 * @file
 * Translation lookaside buffer model (paper §2.3, §4.3).
 *
 * The paper's TLB: 64 entries, fully associative, random replacement,
 * 1-cycle (pipelined) hit.  Under the conventional hierarchy it maps
 * virtual pages to DRAM physical frames (fixed 4 KB pages); under
 * RAMpage it maps virtual pages to *SRAM main memory* frames at the
 * current SRAM page size, and an entry is flushed whenever its page
 * is replaced from the SRAM main memory.
 *
 * Set-associative geometries are supported for the §6.3 future-work
 * configuration (1 K entries, 2-way).
 *
 * Host representation: the modelled ways live in a set-major slot
 * array, which fixes slot numbers, visit order and victim choice.
 * Next to it an open-addressed hash index (linear probing, about four
 * index positions per entry, backward-shift deletion) maps a valid
 * (pid, vpn) to its slot, so a lookup costs a probe or two instead of
 * a scan over every way.  The index is pure host bookkeeping: it
 * answers exactly what the way scan would (a (pid, vpn) is never
 * mapped twice), and replacement draws are unchanged.
 */

#ifndef RAMPAGE_TLB_TLB_HH
#define RAMPAGE_TLB_TLB_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/random.hh"
#include "util/types.hh"

namespace rampage
{

class AuditContext;
class StatsRegistry;

/** TLB geometry and policy. */
struct TlbParams
{
    unsigned entries = 64; ///< total entries (paper: 64)
    unsigned assoc = 0;    ///< 0 = fully associative (paper), else ways
    bool lruReplacement = false; ///< false = random (paper)
    std::uint64_t seed = 7;
};

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0; ///< single-entry invalidations

    std::uint64_t lookups() const { return hits + misses; }
    double missRatio() const;
};

/** Result of a TLB lookup. */
struct TlbLookup
{
    bool hit = false;
    std::uint64_t frame = 0; ///< translated frame number on hit
};

/**
 * The TLB.  Entries are keyed on (pid, virtual page number) and hold
 * a frame number whose meaning belongs to the enclosing hierarchy
 * (DRAM frame conventionally, SRAM frame under RAMpage).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params = TlbParams{});

    /** Translate; counts a hit or a miss. */
    TlbLookup lookup(Pid pid, std::uint64_t vpn);

    /**
     * lookup() that additionally reports which slot answered a hit,
     * so the caller may cache the translation and later replay the
     * hit through recordHitAt() without re-scanning the ways.
     * `slot_out` is only written on a hit.
     */
    TlbLookup lookup(Pid pid, std::uint64_t vpn,
                     std::uint32_t &slot_out);

    /** Probe without statistics or LRU update. */
    bool probe(Pid pid, std::uint64_t vpn) const;

    /**
     * Probe for (pid, vpn) and return its frame, with no statistics
     * or LRU side effects — used by the hierarchy's audit of the
     * last-translation cache against its backing entry.
     * @retval true the entry is present; `frame_out` is set.
     */
    bool peek(Pid pid, std::uint64_t vpn,
              std::uint64_t &frame_out) const;

    /**
     * Replay a hit on `slot` (from the slot-reporting lookup() or
     * slotOf()) on behalf of the hierarchy's last-translation cache.
     * Bit-exact replica of lookup()'s hit path minus the way scan:
     * same useCounter increment, same hit count, same conditional
     * LRU restamp — so a run that short-circuits any number of
     * lookups through it is indistinguishable from one that does
     * not.  Only valid while generation() is unchanged since the
     * slot was obtained.
     */
    void
    recordHitAt(std::uint32_t slot)
    {
        ++useCounter;
        ++stat.hits;
        if (prm.lruReplacement)
            entries[slot].stamp = useCounter;
    }

    /**
     * Slot currently holding (pid, vpn), or `noSlot` if absent; no
     * statistics or LRU side effects.  Used to prime a translation
     * cache right after insert().
     */
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};
    std::uint32_t slotOf(Pid pid, std::uint64_t vpn) const;

    /**
     * Mutation generation: incremented by every state change that
     * can move, replace or drop an entry (insert, invalidate,
     * flushAll, corruptFrameXor).  A cached slot or translation is
     * valid exactly while the generation it was captured under still
     * matches — the self-maintaining validity rule for the
     * hierarchy's last-translation cache.
     */
    std::uint64_t generation() const { return gen; }

    /** Install (pid, vpn) -> frame, replacing per policy. */
    void insert(Pid pid, std::uint64_t vpn, std::uint64_t frame);

    /**
     * Invalidate the entry for (pid, vpn) if present (used when a
     * RAMpage SRAM page is replaced, §2.3).
     * @retval true an entry was flushed.
     */
    bool invalidate(Pid pid, std::uint64_t vpn);

    /** Drop every entry. */
    void flushAll();

    /** Number of currently valid entries. */
    unsigned validEntries() const;

    const TlbParams &params() const { return prm; }
    const TlbStats &stats() const { return stat; }
    void clearStats() { stat = TlbStats{}; }

    /** Register the TLB's counters under `prefix` (e.g. "tlb"). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Visit every valid entry as (pid, vpn, frame); return false from
     * the callback to stop early.  Pure inspection — used by the
     * model-integrity audits and the fault injector.
     */
    void forEachValidEntry(
        const std::function<bool(Pid, std::uint64_t, std::uint64_t)>
            &visit) const;

    /**
     * Self-audit: no two valid entries may translate the same
     * (pid, vpn).  Whether each frame is *backed* by a live mapping
     * is a cross-component question checked by the hierarchy.
     */
    void auditState(AuditContext &ctx) const;

    /**
     * Fault-injection hook (tests/CI only): XOR the first valid
     * entry's frame with `frame_xor`, making the TLB translate to a
     * frame the page tables never assigned.
     * @retval true an entry was corrupted.
     */
    bool corruptFrameXor(std::uint64_t frame_xor);

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        std::uint64_t frame = 0;
        std::uint64_t stamp = 0;
        Pid pid = 0;
        bool valid = false;
    };

    std::uint64_t setOf(Pid pid, std::uint64_t vpn) const;

    /** First index position probed for (pid, vpn). */
    std::uint64_t
    indexHome(Pid pid, std::uint64_t vpn) const
    {
        std::uint64_t key = vpn ^ (static_cast<std::uint64_t>(pid) << 48);
        return (key * 0x9e3779b97f4a7c15ull) >> indexShift;
    }

    /**
     * Index position holding the slot of (pid, vpn), or — when absent
     * — the empty position that ends its probe chain.
     */
    std::uint64_t
    indexPos(Pid pid, std::uint64_t vpn) const
    {
        for (std::uint64_t pos = indexHome(pid, vpn);;
             pos = (pos + 1) & indexMask) {
            std::uint32_t slot = index[pos];
            if (slot == noSlot ||
                (entries[slot].vpn == vpn && entries[slot].pid == pid))
                return pos;
        }
    }

    /** Drop the index position `pos`, closing its probe-chain gap. */
    void unindex(std::uint64_t pos);

    TlbParams prm;
    unsigned nWays;
    std::uint64_t nSets;
    std::vector<Entry> entries; ///< set-major
    std::vector<unsigned> setValid; ///< valid ways per set
    std::vector<std::uint32_t> index; ///< (pid, vpn) -> slot, noSlot empty
    std::uint64_t indexMask = 0;
    unsigned indexShift = 0; ///< 64 - log2(index size)
    std::uint64_t useCounter = 0;
    std::uint64_t gen = 0; ///< see generation()
    Rng rng;
    TlbStats stat;
};

} // namespace rampage

#endif // RAMPAGE_TLB_TLB_HH
