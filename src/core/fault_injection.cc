#include "core/fault_injection.hh"

#include <vector>

#include "core/conventional.hh"
#include "core/paged.hh"
#include "core/run_settings.hh"
#include "os/scheduler.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

namespace
{

struct FaultName
{
    const char *name;
    ModelFault fault;
};

// Stable spec names: these appear in RAMPAGE_INJECT_FAULT, the
// --inject-fault flag and the CI smoke step.
constexpr FaultName faultNames[] = {
    {"none", ModelFault::None},
    {"l1-tag-flip", ModelFault::L1TagFlip},
    {"l2-tag-flip", ModelFault::L2TagFlip},
    {"tlb-frame-xor", ModelFault::TlbFrameXor},
    {"ipt-unlink", ModelFault::IptUnlink},
    {"stale-dirty", ModelFault::StaleDirty},
    {"leak-frame", ModelFault::LeakFrame},
    {"dir-alias", ModelFault::DirAlias},
    {"var-owner-drop", ModelFault::VarOwnerDrop},
    {"sched-block", ModelFault::SchedBlock},
    {"skew-cycles", ModelFault::SkewCycles},
    {"trans-cache-stale", ModelFault::TransCacheStale},
    {"stale-private-copy", ModelFault::StalePrivateCopy},
};

struct SweepFaultName
{
    const char *name;
    SweepFault fault;
};

constexpr SweepFaultName sweepFaultNames[] = {
    {"none", SweepFault::None},
    {"hang", SweepFault::Hang},
    {"crash", SweepFault::Crash},
    {"torn-manifest-line", SweepFault::TornManifestLine},
};

/**
 * Tag-space XOR whose rebuilt address lands far above every address
 * the model legitimately caches (SRAM is a few MB, the conventional
 * page-table image sits at 2^40 and the OS image at 2^41): flipping
 * tag bit 40 moves the block address by at least 2^45.
 */
constexpr Addr tagFlipXor = Addr{1} << 40;

/** Collect a cache's valid block addresses (for seeded selection). */
std::vector<Addr>
validBlocks(const SetAssocCache &cache)
{
    std::vector<Addr> blocks;
    cache.forEachValidBlock([&](Addr addr, bool) {
        blocks.push_back(addr);
        return true;
    });
    return blocks;
}

void
warnInapplicable(const FaultPlan &plan, const char *why)
{
    warnOnce("fault injection: '%s' not applied: %s",
             modelFaultName(plan.kind), why);
}

} // namespace

const char *
modelFaultName(ModelFault fault)
{
    for (const FaultName &entry : faultNames)
        if (entry.fault == fault)
            return entry.name;
    return "unknown";
}

FaultPlan
parseFaultPlan(const std::string &spec)
{
    FaultPlan plan;
    if (spec.empty())
        return plan;

    std::string kind = spec;
    std::string::size_type colon = spec.find(':');
    if (colon != std::string::npos) {
        kind = spec.substr(0, colon);
        std::string seed_text = spec.substr(colon + 1);
        try {
            plan.seed = parseUnsigned("fault seed", seed_text);
        } catch (const ConfigError &) {
            throw ConfigError(
                "bad fault seed '%s' in spec '%s' (want kind[:seed])",
                seed_text.c_str(), spec.c_str());
        }
    }

    for (const FaultName &entry : faultNames) {
        if (kind == entry.name) {
            plan.kind = entry.fault;
            return plan;
        }
    }
    throw ConfigError(
        "unknown model fault '%s' (try l1-tag-flip, l2-tag-flip, "
        "tlb-frame-xor, ipt-unlink, stale-dirty, leak-frame, "
        "dir-alias, var-owner-drop, sched-block, skew-cycles, "
        "trans-cache-stale or stale-private-copy)",
        kind.c_str());
}

const char *
sweepFaultName(SweepFault fault)
{
    for (const SweepFaultName &entry : sweepFaultNames)
        if (entry.fault == fault)
            return entry.name;
    return "unknown";
}

SweepFaultPlan
parseSweepFaultPlan(const std::string &spec)
{
    SweepFaultPlan plan;
    if (spec.empty())
        return plan;

    std::string kind = spec;
    std::string::size_type at = spec.find('@');
    if (at != std::string::npos) {
        kind = spec.substr(0, at);
        plan.pointId = spec.substr(at + 1);
    }

    for (const SweepFaultName &entry : sweepFaultNames) {
        if (kind == entry.name) {
            plan.kind = entry.fault;
            return plan;
        }
    }
    throw ConfigError(
        "unknown sweep fault '%s' (try hang, crash or "
        "torn-manifest-line, optionally @<point-id>)",
        kind.c_str());
}

bool
FaultInjector::apply(Hierarchy &hier)
{
    if (!pending())
        return false;
    applied = true;

    // The unified core exposes two attachment points: the paged
    // (RAMpage) hierarchy's shared PageStore, and the conventional
    // hierarchy's L2.  Everything else (L1s, TLB, directory, event
    // counters) lives in the Hierarchy base.
    auto *paged = dynamic_cast<PagedHierarchy *>(&hier);
    auto *conv = dynamic_cast<ConventionalHierarchy *>(&hier);

    switch (plan.kind) {
      case ModelFault::None:
        return false;

      case ModelFault::L1TagFlip: {
        // Prefer the active core's L1D; an instruction-only window
        // may leave it empty, in which case the L1I serves just as
        // well.
        SetAssocCache *target = &hier.fe().l1dCache;
        std::vector<Addr> blocks = validBlocks(*target);
        if (blocks.empty()) {
            target = &hier.fe().l1iCache;
            blocks = validBlocks(*target);
        }
        if (blocks.empty()) {
            warnInapplicable(plan, "no valid L1 blocks yet");
            return false;
        }
        Addr addr = blocks[plan.seed % blocks.size()];
        return target->corruptTagXor(addr, tagFlipXor);
      }

      case ModelFault::L2TagFlip: {
        if (conv == nullptr || conv->columnL2) {
            warnInapplicable(plan,
                             "needs a plain set-associative L2");
            return false;
        }
        // Corrupt the L2 line backing a live L1 block: inclusion is
        // maintained, so the block is guaranteed present below, and
        // the flip is guaranteed to orphan the L1 copy.
        std::vector<Addr> blocks = validBlocks(hier.fe().l1dCache);
        if (blocks.empty())
            blocks = validBlocks(hier.fe().l1iCache);
        if (!blocks.empty()) {
            Addr chosen = blocks[plan.seed % blocks.size()];
            if (conv->l2Cache.corruptTagXor(chosen, tagFlipXor))
                return true;
        }
        for (Addr addr : blocks)
            if (conv->l2Cache.corruptTagXor(addr, tagFlipXor))
                return true;
        warnInapplicable(plan, "no L1 block found in the L2");
        return false;
      }

      case ModelFault::TlbFrameXor:
        if (!hier.fe().tlbUnit.corruptFrameXor(0x100000)) {
            warnInapplicable(plan, "no valid TLB entries yet");
            return false;
        }
        // The corrupted entry may be the one the last-translation
        // cache mirrors; drop the cache so the violation is
        // attributed to tlb.backing, the invariant this fault
        // exercises (trans-cache-stale covers the cache itself).
        hier.fe().transCacheInvalidate();
        return true;

      case ModelFault::IptUnlink:
        if (paged == nullptr) {
            warnInapplicable(plan, "needs the RAMpage hierarchy");
            return false;
        }
        if (!paged->store.corruptUnlinkEntry()) {
            warnInapplicable(plan, "no mapped user frames yet");
            return false;
        }
        return true;

      case ModelFault::StaleDirty:
        if (paged == nullptr || !paged->store.uniform()) {
            warnInapplicable(plan, "needs the RAMpage hierarchy");
            return false;
        }
        if (!paged->store.corruptStaleDirty()) {
            warnInapplicable(plan, "no unmapped user frames");
            return false;
        }
        return true;

      case ModelFault::LeakFrame:
        if (paged == nullptr || !paged->store.uniform()) {
            warnInapplicable(plan, "needs the RAMpage hierarchy");
            return false;
        }
        if (!paged->store.corruptLeakFrame()) {
            warnInapplicable(plan, "no cold-filled frames yet");
            return false;
        }
        return true;

      case ModelFault::DirAlias:
        // Every hierarchy shares one DRAM directory (MemoryBackend).
        if (!hier.memoryBackend().dir.corruptAlias()) {
            warnInapplicable(plan,
                             "needs two allocated DRAM pages");
            return false;
        }
        return true;

      case ModelFault::VarOwnerDrop:
        if (paged == nullptr || paged->store.uniform()) {
            warnInapplicable(plan,
                             "needs the variable-page-size hierarchy");
            return false;
        }
        if (!paged->store.corruptDropOwner()) {
            warnInapplicable(plan, "no owned user frames yet");
            return false;
        }
        return true;

      case ModelFault::SchedBlock:
        warnInapplicable(plan, "needs a switch-on-miss run");
        return false;

      case ModelFault::SkewCycles:
        // A prime cycle skew: every re-pricing of the run's events
        // now disagrees with the accumulated elapsed time, which the
        // time.conservation audit must catch at the next boundary.
        hier.evt.l2Cycles += 977;
        return true;

      case ModelFault::TransCacheStale:
        // Model the desynchronization bug the tlb.trans_cache
        // invariant guards against: a live cache entry whose frame
        // no longer matches its backing TLB slot.  Mutating the TLB
        // itself would advance its generation counter and retire the
        // cache (that is the self-maintaining validity rule working
        // as designed), so the fault skews the cached frame directly
        // — exactly what a forgotten re-capture after a remap would
        // leave behind.
        for (auto &stream : hier.fe().transCache) {
            for (Hierarchy::TranslationCache &tc : stream) {
                if (!tc.valid ||
                    tc.gen != hier.fe().tlbUnit.generation())
                    continue;
                tc.frame ^= 1;
                return true;
            }
        }
        warnInapplicable(plan, "no live cached translation yet");
        return false;

      case ModelFault::StalePrivateCopy: {
        // Model the coherence bug the residency masks guard against:
        // a core holds a live TLB translation (and possibly L1 lines)
        // for an SRAM frame, but the frame's residency mask has lost
        // the core's bit — page replacement would reassign the frame
        // without invalidating that core's private copies.  Clearing
        // the mask bit under a live translation is exactly the state
        // such a bug leaves behind; the coherence.residency audit
        // must reject it.
        if (paged == nullptr) {
            warnInapplicable(plan, "needs the RAMpage hierarchy");
            return false;
        }
        struct Target
        {
            std::uint64_t frame;
            CoreId core;
        };
        std::vector<Target> targets;
        MemoryBackend &backend = hier.memoryBackend();
        for (unsigned c = 0; c < hier.coreCount(); ++c) {
            CoreId core = static_cast<CoreId>(c);
            hier.fe(core).tlbUnit.forEachValidEntry(
                [&](Pid, std::uint64_t, std::uint64_t frame) {
                    if (backend.resident(frame, core))
                        targets.push_back(Target{frame, core});
                    return true;
                });
        }
        if (targets.empty()) {
            warnInapplicable(plan, "no resident translations yet");
            return false;
        }
        const Target &victim = targets[plan.seed % targets.size()];
        return backend.clearResidencyBit(victim.frame, victim.core);
      }
    }
    return false;
}

bool
FaultInjector::applyScheduler(Scheduler &sched, Tick now)
{
    if (!pending() || plan.kind != ModelFault::SchedBlock)
        return false;
    applied = true;
    // Park the running process a full simulated second in the future;
    // the queue audit requires the running pid to be unblocked.
    return sched.corruptBlockRunning(now + Tick{1'000'000'000'000});
}

} // namespace rampage
