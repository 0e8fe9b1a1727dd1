#include "tlb/tlb.hh"

#include <algorithm>

#include "stats/registry.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

double
TlbStats::missRatio() const
{
    std::uint64_t total = lookups();
    return total == 0 ? 0.0
                      : static_cast<double>(misses) /
                            static_cast<double>(total);
}

void
Tlb::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".hits", "TLB hits", &stat.hits);
    reg.addCounter(prefix + ".misses", "TLB misses", &stat.misses);
    reg.addCounter(prefix + ".flushes",
                   "TLB single-entry invalidations", &stat.flushes);
    reg.addFormula(prefix + ".miss_ratio", "TLB misses / lookups",
                   [this] { return stat.missRatio(); });
}

Tlb::Tlb(const TlbParams &params) : prm(params), rng(params.seed)
{
    if (prm.entries == 0)
        throw ConfigError("TLB must have at least one entry");
    nWays = prm.assoc == 0 ? prm.entries : prm.assoc;
    if (nWays > prm.entries || prm.entries % nWays != 0)
        throw ConfigError("TLB associativity %u incompatible with %u entries",
                          nWays, prm.entries);
    nSets = prm.entries / nWays;
    if (!isPowerOfTwo(nSets))
        throw ConfigError("TLB set count must be a power of two");
    entries.assign(prm.entries, Entry{});
    setValid.assign(nSets, 0);
    // Four index positions per entry keep probe chains about one
    // position long; at least eight so the hash shift stays < 64.
    std::uint64_t positions =
        std::uint64_t{1} << ceilLog2(std::max<std::uint64_t>(
            4 * std::uint64_t{prm.entries}, 8));
    index.assign(positions, noSlot);
    indexMask = positions - 1;
    indexShift = 64 - floorLog2(positions);
}

std::uint64_t
Tlb::setOf(Pid pid, std::uint64_t vpn) const
{
    // Mix pid into the index so processes do not collide trivially.
    std::uint64_t key = vpn ^ (static_cast<std::uint64_t>(pid) << 13);
    return key & (nSets - 1);
}

void
Tlb::unindex(std::uint64_t pos)
{
    // Backward-shift deletion: walk the cluster after the hole and
    // pull back every entry whose home position does not lie
    // (cyclically) between the hole and where it sits, so no probe
    // chain ever crosses an empty position.
    std::uint64_t hole = pos;
    for (std::uint64_t at = (pos + 1) & indexMask; index[at] != noSlot;
         at = (at + 1) & indexMask) {
        const Entry &entry = entries[index[at]];
        std::uint64_t home = indexHome(entry.pid, entry.vpn);
        if (((at - home) & indexMask) >= ((at - hole) & indexMask)) {
            index[hole] = index[at];
            hole = at;
        }
    }
    index[hole] = noSlot;
}

TlbLookup
Tlb::lookup(Pid pid, std::uint64_t vpn)
{
    std::uint32_t slot;
    return lookup(pid, vpn, slot);
}

TlbLookup
Tlb::lookup(Pid pid, std::uint64_t vpn, std::uint32_t &slot_out)
{
    ++useCounter;
    std::uint32_t slot = slotOf(pid, vpn);
    if (slot != noSlot) {
        ++stat.hits;
        if (prm.lruReplacement)
            entries[slot].stamp = useCounter;
        slot_out = slot;
        return TlbLookup{true, entries[slot].frame};
    }
    ++stat.misses;
    RAMPAGE_DPRINTF(Tlb, "miss pid=%u vpn=0x%llx",
                    static_cast<unsigned>(pid),
                    static_cast<unsigned long long>(vpn));
    return TlbLookup{};
}

std::uint32_t
Tlb::slotOf(Pid pid, std::uint64_t vpn) const
{
    return index[indexPos(pid, vpn)];
}

bool
Tlb::probe(Pid pid, std::uint64_t vpn) const
{
    return slotOf(pid, vpn) != noSlot;
}

bool
Tlb::peek(Pid pid, std::uint64_t vpn, std::uint64_t &frame_out) const
{
    std::uint32_t slot = slotOf(pid, vpn);
    if (slot == noSlot)
        return false;
    frame_out = entries[slot].frame;
    return true;
}

void
Tlb::insert(Pid pid, std::uint64_t vpn, std::uint64_t frame)
{
    ++useCounter;
    ++gen;
    // Refresh in place when the mapping is already present.
    std::uint64_t pos = indexPos(pid, vpn);
    if (index[pos] != noSlot) {
        Entry &entry = entries[index[pos]];
        entry.frame = frame;
        entry.stamp = useCounter;
        return;
    }

    std::uint64_t set = setOf(pid, vpn);
    Entry *base = &entries[set * nWays];
    Entry *slot = nullptr;
    if (setValid[set] < nWays) {
        for (unsigned w = 0; w < nWays; ++w) {
            if (!base[w].valid) {
                slot = &base[w];
                break;
            }
        }
        ++setValid[set];
    } else {
        if (prm.lruReplacement) {
            slot = base;
            for (unsigned w = 1; w < nWays; ++w)
                if (base[w].stamp < slot->stamp)
                    slot = &base[w];
        } else {
            slot = &base[rng.below(nWays)];
        }
        // The backward shift may move the end of (pid, vpn)'s chain.
        unindex(indexPos(slot->pid, slot->vpn));
        pos = indexPos(pid, vpn);
    }
    index[pos] = static_cast<std::uint32_t>(slot - entries.data());
    slot->valid = true;
    slot->pid = pid;
    slot->vpn = vpn;
    slot->frame = frame;
    slot->stamp = useCounter;
}

bool
Tlb::invalidate(Pid pid, std::uint64_t vpn)
{
    std::uint64_t pos = indexPos(pid, vpn);
    if (index[pos] == noSlot)
        return false;
    entries[index[pos]].valid = false;
    --setValid[setOf(pid, vpn)];
    unindex(pos);
    ++gen;
    ++stat.flushes;
    RAMPAGE_DPRINTF(Tlb, "invalidate pid=%u vpn=0x%llx",
                    static_cast<unsigned>(pid),
                    static_cast<unsigned long long>(vpn));
    return true;
}

void
Tlb::flushAll()
{
    ++gen;
    for (Entry &entry : entries)
        entry.valid = false;
    std::fill(setValid.begin(), setValid.end(), 0u);
    std::fill(index.begin(), index.end(), noSlot);
}

unsigned
Tlb::validEntries() const
{
    unsigned count = 0;
    for (const Entry &entry : entries)
        if (entry.valid)
            ++count;
    return count;
}

void
Tlb::forEachValidEntry(
    const std::function<bool(Pid, std::uint64_t, std::uint64_t)> &visit)
    const
{
    for (const Entry &entry : entries) {
        if (!entry.valid)
            continue;
        if (!visit(entry.pid, entry.vpn, entry.frame))
            return;
    }
}

void
Tlb::auditState(AuditContext &ctx) const
{
    // A duplicated (pid, vpn) would make the translation depend on
    // probe order; insert() refreshes in place precisely to prevent
    // this.  O(entries^2) but the TLB is tiny (paper: 64 entries).
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid)
            continue;
        for (std::size_t j = i + 1; j < entries.size(); ++j) {
            ctx.check(!entries[j].valid ||
                          entries[j].pid != entries[i].pid ||
                          entries[j].vpn != entries[i].vpn,
                      "tlb.dup_entry",
                      "pid=%u vpn=0x%llx mapped twice (frames %llu "
                      "and %llu)",
                      static_cast<unsigned>(entries[i].pid),
                      static_cast<unsigned long long>(entries[i].vpn),
                      static_cast<unsigned long long>(entries[i].frame),
                      static_cast<unsigned long long>(
                          entries[j].frame));
        }
    }

    // tlb.index: the host index names exactly the valid entries, each
    // on its own probe chain, and the per-set valid counts that gate
    // the free-way scan are exact.  Bounded walks only, so a corrupt
    // index is reported rather than looped on.
    std::uint64_t population = 0;
    for (std::uint64_t pos = 0; pos < index.size(); ++pos) {
        std::uint32_t slot = index[pos];
        if (slot == noSlot)
            continue;
        ++population;
        ctx.check(slot < entries.size() && entries[slot].valid,
                  "tlb.index", "index position %llu names %s slot %u",
                  static_cast<unsigned long long>(pos),
                  slot < entries.size() ? "invalid" : "out-of-range",
                  static_cast<unsigned>(slot));
    }
    ctx.check(population == validEntries(), "tlb.index",
              "index holds %llu entries but %u are valid",
              static_cast<unsigned long long>(population),
              validEntries());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid)
            continue;
        bool reachable = false;
        std::uint64_t pos = indexHome(entries[i].pid, entries[i].vpn);
        for (std::uint64_t hops = 0;
             hops < index.size() && index[pos] != noSlot && !reachable;
             ++hops, pos = (pos + 1) & indexMask)
            reachable = index[pos] == i;
        ctx.check(reachable, "tlb.index",
                  "valid slot %zu (pid=%u vpn=0x%llx) unreachable "
                  "through the index",
                  i, static_cast<unsigned>(entries[i].pid),
                  static_cast<unsigned long long>(entries[i].vpn));
    }
    for (std::uint64_t set = 0; set < nSets; ++set) {
        unsigned valid = 0;
        for (unsigned w = 0; w < nWays; ++w)
            valid += entries[set * nWays + w].valid ? 1 : 0;
        ctx.check(valid == setValid[set], "tlb.index",
                  "set %llu has %u valid ways but counts %u",
                  static_cast<unsigned long long>(set), valid,
                  setValid[set]);
    }
}

bool
Tlb::corruptFrameXor(std::uint64_t frame_xor)
{
    if (frame_xor == 0)
        return false;
    for (Entry &entry : entries) {
        if (!entry.valid)
            continue;
        entry.frame ^= frame_xor;
        ++gen;
        return true;
    }
    return false;
}

} // namespace rampage
