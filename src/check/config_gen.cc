#include "check/config_gen.hh"

#include <algorithm>

#include "os/page_store.hh"
#include "util/bitops.hh"
#include "util/error.hh"

namespace rampage
{

namespace
{

/** Pick one element of a small list. */
template <typename T, std::size_t N>
T
pick(Rng &rng, const T (&options)[N])
{
    return options[rng.below(N)];
}

CommonConfig
drawCommon(Rng &rng)
{
    CommonConfig c{};
    constexpr std::uint64_t rates[] = {200'000'000, 1'000'000'000,
                                       4'000'000'000};
    c.issueHz = pick(rng, rates);

    constexpr std::uint64_t l1_blocks[] = {16, 32, 64};
    c.l1BlockBytes = pick(rng, l1_blocks);
    // 16..256 blocks -> 256 B .. 16 KB; small caches keep the
    // property suite fast while exercising real contention.
    c.l1SizeBytes = c.l1BlockBytes << (4 + rng.below(5));
    constexpr unsigned l1_ways[] = {1, 1, 2, 4};
    c.l1Assoc = pick(rng, l1_ways);

    c.tlb.entries = 1u << rng.below(8); // 1..128
    if (rng.chance(0.5)) {
        c.tlb.assoc = 0; // fully associative (the paper's shape)
    } else {
        unsigned ways = 1u << rng.below(4);
        c.tlb.assoc = std::min(ways, c.tlb.entries);
    }
    c.tlb.lruReplacement = rng.chance(0.5);

    c.dramKind = rng.chance(0.25) ? CommonConfig::DramKind::Sdram
                                  : CommonConfig::DramKind::DirectRambus;
    constexpr std::uint64_t dram_pages[] = {2048, 4096, 8192};
    c.dramPageBytes = pick(rng, dram_pages);
    return c;
}

ConventionalConfig
drawConventional(Rng &rng, const CommonConfig &common)
{
    ConventionalConfig cc{};
    cc.common = common;
    constexpr std::uint64_t l2_blocks[] = {64, 128, 256};
    cc.l2BlockBytes = std::max(pick(rng, l2_blocks),
                               common.l1BlockBytes);
    // 64..2048 blocks -> 4 KB .. 512 KB.
    cc.l2SizeBytes = cc.l2BlockBytes << (6 + rng.below(6));
    constexpr unsigned l2_ways[] = {1, 1, 2, 4};
    cc.l2Assoc = pick(rng, l2_ways);
    constexpr ReplPolicy repls[] = {ReplPolicy::LRU, ReplPolicy::Random,
                                    ReplPolicy::FIFO};
    cc.l2Repl = pick(rng, repls);
    if (rng.chance(0.25)) {
        cc.l2Style = ConventionalConfig::L2Style::ColumnAssoc;
        cc.victimEntries = 0; // rejected behind a column-assoc L2
    } else {
        cc.l2Style = ConventionalConfig::L2Style::SetAssoc;
        constexpr unsigned victims[] = {0, 0, 4, 8};
        cc.victimEntries = pick(rng, victims);
    }
    return cc;
}

/**
 * Probe a pager geometry for its real frame counts.  The capacity
 * math (reclaimed tag bytes, OS reserve sized to the residency
 * table) lives in the PageStore constructor; rather than replicate
 * it here and drift, construct a throwaway uniform store and ask.
 */
bool
probePagerFrames(const PageStoreParams &base, std::uint64_t &frames,
                 std::uint64_t &os_frames)
{
    PageStoreParams probe = base;
    probe.defaultPageBytes = 0;
    probe.pageBytesByPid.clear();
    probe.repl = PageReplKind::Clock;
    try {
        PageStore store(probe);
        frames = store.totalFrames();
        os_frames = store.osFrames();
        return true;
    } catch (const ConfigError &) {
        return false;
    }
}

PagedConfig
drawPaged(Rng &rng, const CommonConfig &common)
{
    PagedConfig pc{};
    pc.common = common;
    PageStoreParams &pg = pc.pager;

    // Frame size within [l1Block, dramPage].
    std::uint64_t min_page = std::max<std::uint64_t>(
        common.l1BlockBytes, 128);
    std::uint64_t page = min_page << rng.below(4);
    pg.pageBytes = std::min(page, common.dramPageBytes);
    // 32..512 frames of cache-equivalent capacity.
    pg.baseSramBytes = pg.pageBytes << (5 + rng.below(5));
    constexpr std::uint64_t tag_bytes[] = {0, 4, 8};
    pg.tagBytesPerBlock = pick(rng, tag_bytes);

    std::uint64_t frames = 0, os_frames = 0;
    bool probed = probePagerFrames(pg, frames, os_frames);
    std::uint64_t evictable =
        probed && frames > os_frames ? frames - os_frames : 0;

    bool per_pid = rng.chance(0.4);
    if (per_pid && probed && evictable >= 8) {
        // Largest page (in frames) the window clock can host: the
        // first window starts at nOsFrames rounded up to k, so
        // divCeil(os, k)*k + k <= frames must hold for every k.
        auto window_fits = [&](std::uint64_t k) {
            if (k == 0 || pg.pageBytes * k > common.dramPageBytes)
                return false;
            std::uint64_t first = divCeil(os_frames, k) * k;
            return first + k <= frames;
        };
        auto draw_frames = [&]() {
            std::uint64_t k = std::uint64_t{1} << rng.below(4);
            while (k > 1 && !window_fits(k))
                k >>= 1;
            return window_fits(k) ? k : std::uint64_t{1};
        };
        pg.defaultPageBytes = pg.pageBytes * draw_frames();
        unsigned n_special = static_cast<unsigned>(rng.below(5));
        for (unsigned i = 0; i < n_special; ++i) {
            Pid pid = static_cast<Pid>(rng.below(18));
            pg.pageBytesByPid[pid] = pg.pageBytes * draw_frames();
        }
    } else {
        constexpr PageReplKind repls[] = {
            PageReplKind::Clock, PageReplKind::Clock,
            PageReplKind::Fifo, PageReplKind::Random,
            PageReplKind::Lru, PageReplKind::Standby};
        pg.repl = pick(rng, repls);
        if (pg.repl == PageReplKind::Standby) {
            // Standby keeps its list strictly inside the evictable
            // frames; fall back to clock when too cramped.
            if (evictable >= 4)
                pg.standbyPages = 1 + rng.below(
                    std::min<std::uint64_t>(evictable - 2, 16));
            else
                pg.repl = PageReplKind::Clock;
        }
    }

    pc.switchOnMiss = rng.chance(0.25);
    return pc;
}

} // namespace

FuzzPoint
generatePoint(Rng &rng, std::uint64_t seed, std::uint64_t index,
              GenStats *stats)
{
    for (int attempt = 0; attempt < 256; ++attempt) {
        if (stats)
            ++stats->candidates;
        FuzzPoint point;
        point.generatorSeed = seed;
        point.pointIndex = index;

        CommonConfig common = drawCommon(rng);
        if (rng.chance(0.45))
            point.hier = drawConventional(rng, common);
        else
            point.hier = drawPaged(rng, common);

        point.sim.maxRefs = 2000 * (1 + rng.below(10));
        point.sim.quantumRefs = std::max<std::uint64_t>(
            500, point.sim.maxRefs / (1 + rng.below(8)));
        point.sim.insertSwitchTrace = !rng.chance(0.2);
        point.sim.watchdogRefBudget =
            point.sim.maxRefs * 20 + 10'000'000;
        point.workloadSalt = rng.next() & 0xffff;

        try {
            validateHierarchyConfig(point.hier);
            return point;
        } catch (const ConfigError &) {
            if (stats)
                ++stats->rejected;
        }
    }
    throw InternalError(
        "fuzz generator: no valid candidate in 256 draws for seed "
        "%llu index %llu — generator and validator disagree",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(index));
}

std::string
mutateHostile(Rng &rng, HierarchyConfig &config)
{
    CommonConfig &c = config.common();
    bool conventional =
        config.family == HierarchyConfig::Family::Conventional;
    std::uint64_t huge = std::uint64_t{1} << 62;

    switch (rng.below(conventional ? 10 : 15)) {
      case 0:
        c.l1BlockBytes = 48;
        return "l1BlockBytes non-power-of-two (48)";
      case 1:
        c.l1BlockBytes = 0;
        return "l1BlockBytes zero";
      case 2:
        c.l1SizeBytes = c.l1BlockBytes * 5 + 1;
        return "l1SizeBytes not a multiple of the block";
      case 3:
        c.l1Assoc = 1u << 30;
        return "l1Assoc exceeds the block count";
      case 4:
        c.tlb.entries = 0;
        return "tlb.entries zero";
      case 5:
        c.tlb.entries = 64;
        c.tlb.assoc = 3;
        return "tlb.assoc does not divide the entries";
      case 6:
        c.tlb.entries = 48;
        c.tlb.assoc = 4;
        return "tlb set count not a power of two";
      case 7:
        if (conventional) {
            config.conventional.l2BlockBytes = c.l1BlockBytes / 2;
            return "l2BlockBytes smaller than the L1 block";
        }
        config.paged.pager.pageBytes = c.l1BlockBytes / 2;
        return "pager pageBytes smaller than the L1 block";
      case 8:
        if (conventional) {
            config.conventional.l2SizeBytes =
                config.conventional.l2BlockBytes * 7 + 3;
            return "l2SizeBytes not a multiple of the block";
        }
        config.paged.pager.baseSramBytes =
            config.paged.pager.pageBytes * 3 + 1;
        return "pager baseSramBytes not a multiple of the page";
      case 9:
        if (conventional) {
            config.conventional.l2Style =
                ConventionalConfig::L2Style::ColumnAssoc;
            config.conventional.victimEntries = 4;
            return "victim cache behind a column-associative L2";
        }
        config.paged.pager.pageBytes = 384;
        return "pager pageBytes non-power-of-two (384)";
      case 10:
        config.paged.pager.pageBytes = c.dramPageBytes * 2;
        return "pager pageBytes larger than the DRAM page";
      case 11:
        config.paged.pager.defaultPageBytes =
            config.paged.pager.pageBytes * 3;
        return "per-pid defaultPageBytes non-power-of-two multiple";
      case 12:
        config.paged.pager.defaultPageBytes =
            std::max<std::uint64_t>(config.paged.pager.pageBytes / 2,
                                    1);
        return "per-pid defaultPageBytes below the base frame";
      case 13:
        config.paged.pager.osFixedBytes = huge;
        return "pager OS reserve consumes the whole SRAM";
      case 14:
        config.paged.pager.repl = PageReplKind::Standby;
        config.paged.pager.standbyPages = huge;
        return "standbyPages exceeds the evictable frames";
    }
    return "no mutation";
}

} // namespace rampage
