#include "os/inverted_page_table.hh"

#include <algorithm>

#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

InvertedPageTable::InvertedPageTable(std::uint64_t frames, Addr table_vbase)
    : vbase(table_vbase)
{
    RAMPAGE_ASSERT(frames > 0, "page table needs at least one frame");
    RAMPAGE_ASSERT(frames <= maxFrames,
                   "frame count exceeds 32-bit table links");
    entries.assign(frames, Entry{});
    // A quarter anchor per frame (load factor <= 4): the table must
    // stay close to the paper's ~20 bytes-per-frame reserve budget
    // (§4.5), so a full-width anchor array is deliberately avoided;
    // the slightly longer chains show up as extra TLB-miss handler
    // probes, which is the honest cost of the compact table.
    std::uint64_t buckets = std::uint64_t{1}
                            << floorLog2(std::max<std::uint64_t>(
                                   divCeil(frames, 4), 16));
    anchors.assign(buckets, noFrame);
    anchorMask = buckets - 1;
}

std::uint64_t
InvertedPageTable::hashOf(Pid pid, std::uint64_t vpn) const
{
    // Fibonacci-style mix of pid and vpn.
    std::uint64_t key = vpn * 0x9e3779b97f4a7c15ull;
    key ^= static_cast<std::uint64_t>(pid) * 0xc2b2ae3d27d4eb4full;
    key ^= key >> 29;
    return key & anchorMask;
}

Addr
InvertedPageTable::anchorAddr(std::uint64_t bucket) const
{
    // Anchor array precedes the entry array in the table's image.
    return vbase + bucket * 8;
}

Addr
InvertedPageTable::entryAddr(std::uint64_t frame) const
{
    return vbase + anchors.size() * 8 + frame * iptEntryBytes;
}

std::uint64_t
InvertedPageTable::tableBytes() const
{
    return anchors.size() * 8 + entries.size() * iptEntryBytes;
}

IptLookup
InvertedPageTable::lookup(Pid pid, std::uint64_t vpn,
                          std::vector<Addr> *probe_addrs) const
{
    std::uint64_t bucket = hashOf(pid, vpn);
    if (probe_addrs)
        probe_addrs->push_back(anchorAddr(bucket));

    IptLookup result;
    ++lookupCount;
    std::uint32_t frame = anchors[bucket];
    while (frame != noFrame) {
        const Entry &entry = entries[frame];
        RAMPAGE_ASSERT(entry.valid, "chained entry must be valid");
        ++result.probes;
        ++probeCount;
        if (probe_addrs)
            probe_addrs->push_back(entryAddr(frame));
        if (entry.pid == pid && entry.vpn == vpn) {
            result.found = true;
            result.frame = frame;
            return result;
        }
        frame = entry.next;
    }
    return result;
}

void
InvertedPageTable::insert(std::uint64_t frame, Pid pid, std::uint64_t vpn)
{
    RAMPAGE_ASSERT(frame < entries.size(), "frame out of range");
    RAMPAGE_ASSERT(!entries[frame].valid, "frame already mapped");

    std::uint64_t bucket = hashOf(pid, vpn);
    Entry &entry = entries[frame];
    entry.pid = pid;
    entry.vpn = vpn;
    entry.valid = true;
    entry.next = anchors[bucket];
    anchors[bucket] = static_cast<std::uint32_t>(frame);
    ++nMapped;
}

bool
InvertedPageTable::remove(std::uint64_t frame)
{
    RAMPAGE_ASSERT(frame < entries.size(), "frame out of range");
    Entry &entry = entries[frame];
    if (!entry.valid)
        return false;

    std::uint64_t bucket = hashOf(entry.pid, entry.vpn);
    std::uint32_t *link = &anchors[bucket];
    while (*link != noFrame && *link != frame)
        link = &entries[*link].next;
    RAMPAGE_ASSERT(*link == frame, "frame missing from its hash chain");
    *link = entry.next;

    entry.valid = false;
    entry.next = noFrame;
    --nMapped;
    return true;
}

bool
InvertedPageTable::mapped(std::uint64_t frame) const
{
    RAMPAGE_ASSERT(frame < entries.size(), "frame out of range");
    return entries[frame].valid;
}

Pid
InvertedPageTable::framePid(std::uint64_t frame) const
{
    RAMPAGE_ASSERT(mapped(frame), "frame not mapped");
    return entries[frame].pid;
}

std::uint64_t
InvertedPageTable::frameVpn(std::uint64_t frame) const
{
    RAMPAGE_ASSERT(mapped(frame), "frame not mapped");
    return entries[frame].vpn;
}

void
InvertedPageTable::auditState(AuditContext &ctx) const
{
    // Walk every anchor chain with explicit bounds (a cycle or a link
    // to an invalid entry must be reported, not crashed or looped on).
    std::vector<bool> reached(entries.size(), false);
    std::uint64_t reachable = 0;
    for (std::uint64_t bucket = 0; bucket < anchors.size(); ++bucket) {
        std::uint32_t frame = anchors[bucket];
        std::uint64_t hops = 0;
        while (frame != noFrame) {
            if (!ctx.check(frame < entries.size(), "ipt.chain",
                           "bucket %llu links to frame %llu beyond "
                           "the %zu-frame table",
                           static_cast<unsigned long long>(bucket),
                           static_cast<unsigned long long>(frame),
                           entries.size()))
                break;
            const Entry &entry = entries[frame];
            if (!ctx.check(entry.valid, "ipt.chain",
                           "bucket %llu chains through invalid frame "
                           "%llu",
                           static_cast<unsigned long long>(bucket),
                           static_cast<unsigned long long>(frame)))
                break;
            if (!ctx.check(!reached[frame], "ipt.chain",
                           "frame %llu reachable twice (chain cycle "
                           "or cross-link)",
                           static_cast<unsigned long long>(frame)))
                break;
            reached[frame] = true;
            ++reachable;
            ctx.check(hashOf(entry.pid, entry.vpn) == bucket,
                      "ipt.chain",
                      "frame %llu (pid=%u vpn=0x%llx) hashes to "
                      "bucket %llu but chains from bucket %llu",
                      static_cast<unsigned long long>(frame),
                      static_cast<unsigned>(entry.pid),
                      static_cast<unsigned long long>(entry.vpn),
                      static_cast<unsigned long long>(
                          hashOf(entry.pid, entry.vpn)),
                      static_cast<unsigned long long>(bucket));
            if (!ctx.check(++hops <= entries.size(), "ipt.chain",
                           "bucket %llu chain exceeds the table size "
                           "(cycle)",
                           static_cast<unsigned long long>(bucket)))
                break;
            frame = entry.next;
        }
    }

    // Every valid entry must be reachable, or lookup() will fault a
    // page that is in fact resident (then double-map its vpn).
    for (std::uint64_t frame = 0; frame < entries.size(); ++frame) {
        if (!entries[frame].valid)
            continue;
        ctx.check(reached[frame], "ipt.chain",
                  "valid frame %llu (pid=%u vpn=0x%llx) unreachable "
                  "from its anchor chain",
                  static_cast<unsigned long long>(frame),
                  static_cast<unsigned>(entries[frame].pid),
                  static_cast<unsigned long long>(entries[frame].vpn));
    }

    ctx.check(reachable == nMapped, "ipt.count",
              "%llu frames reachable through chains but mappedCount() "
              "says %llu",
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(nMapped));
}

bool
InvertedPageTable::corruptUnlink(std::uint64_t frame)
{
    if (frame >= entries.size() || !entries[frame].valid)
        return false;
    Entry &entry = entries[frame];
    std::uint64_t bucket = hashOf(entry.pid, entry.vpn);
    std::uint32_t *link = &anchors[bucket];
    while (*link != noFrame && *link != frame)
        link = &entries[*link].next;
    if (*link != frame)
        return false;
    // Unlink but deliberately keep the entry valid and nMapped
    // untouched: the classic lost-update bug this models leaves a
    // resident page the lookup path can no longer find.
    *link = entry.next;
    entry.next = noFrame;
    return true;
}

double
InvertedPageTable::meanProbeDepth() const
{
    return lookupCount == 0 ? 0.0
                            : static_cast<double>(probeCount) /
                                  static_cast<double>(lookupCount);
}

} // namespace rampage
