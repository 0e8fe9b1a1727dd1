/**
 * @file
 * Model-level fault injection: deterministic corruptions of live
 * simulator state (a flipped cache tag, an unlinked page-table entry,
 * a stale dirty bit, a skewed cycle accumulator) used by tests and CI
 * to prove that every model-integrity audit checker actually fires
 * (src/core/audit.hh).  A fault plan names one corruption and an
 * optional seed selecting among eligible targets; the simulator
 * applies it once, at the first audit boundary after a clean audit,
 * so the corruption is attributable to the injector and not the run.
 */

#ifndef RAMPAGE_CORE_FAULT_INJECTION_HH
#define RAMPAGE_CORE_FAULT_INJECTION_HH

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace rampage
{

class Hierarchy;
class Scheduler;

/** The catalogue of injectable model faults. */
enum class ModelFault
{
    None,        ///< no corruption (the default)
    L1TagFlip,   ///< flip a high tag bit of a valid L1 block
    L2TagFlip,   ///< flip a high tag bit of a valid L2 block
    TlbFrameXor, ///< XOR a TLB entry's frame number
    IptUnlink,   ///< unlink an IPT entry from its hash chain
    StaleDirty,  ///< set a dirty bit on an unmapped SRAM frame
    LeakFrame,   ///< unmap a cold-filled frame without reuse
    DirAlias,    ///< alias two pages onto one DRAM home
    VarOwnerDrop,///< drop a variable-pager frame back-pointer
    SchedBlock,  ///< block the running process past `now`
    SkewCycles,  ///< skew an event-count cycle accumulator
    TransCacheStale, ///< leave the last-translation cache stale
    StalePrivateCopy, ///< drop a core's frame-residency bit under a
                      ///< live TLB translation (coherence-lite)
};

/** Stable CLI/env name of a fault ("l1-tag-flip", ...). */
const char *modelFaultName(ModelFault fault);

/** One planned corruption. */
struct FaultPlan
{
    ModelFault kind = ModelFault::None;
    /** Selects among eligible targets where meaningful. */
    std::uint64_t seed = 1;
};

/**
 * Parse a "kind[:seed]" fault spec ("" => no fault).
 * @throws ConfigError on an unknown kind or unparsable seed.
 */
FaultPlan parseFaultPlan(const std::string &spec);

/**
 * Sweep-execution faults: deterministic failure modes of the *runner*
 * rather than the model, used to prove SweepRunner's fault isolation
 * (deadlines, process isolation, crash-consistent checkpointing).
 * Unlike ModelFault these never corrupt simulator state — they make a
 * point hang, die, or tear its checkpoint line.
 */
enum class SweepFault
{
    None,             ///< no fault (the default)
    Hang,             ///< the point never finishes (polls the deadline)
    Crash,            ///< the point raises SIGSEGV mid-execution
    TornManifestLine, ///< the point's checkpoint append is cut short
};

/** Stable CLI/env name of a sweep fault ("hang", "crash", ...). */
const char *sweepFaultName(SweepFault fault);

/**
 * One planned sweep fault.  `pointId` selects the target point; an
 * empty id matches every point (useful for single-point smokes).
 */
struct SweepFaultPlan
{
    SweepFault kind = SweepFault::None;
    std::string pointId;

    /** Whether this plan targets the given sweep point. */
    bool matches(const std::string &id) const
    {
        return kind != SweepFault::None &&
               (pointId.empty() || pointId == id);
    }
};

/**
 * Parse a "kind[@point-id]" sweep-fault spec ("" => no fault).
 * @throws ConfigError on an unknown kind.
 */
SweepFaultPlan parseSweepFaultPlan(const std::string &spec);

/**
 * Applies a fault plan to live model state, once.  Dispatches on the
 * concrete hierarchy type; a fault that does not apply to the run's
 * hierarchy (e.g. ipt-unlink on a conventional run) warns and injects
 * nothing.  The injector is a friend of the hierarchy classes: the
 * corruption hooks themselves live with the components they corrupt.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan_in) : plan(plan_in) {}

    /** A corruption is planned and has not been applied yet. */
    bool
    pending() const
    {
        return plan.kind != ModelFault::None && !applied;
    }

    /** The planned fault targets the scheduler, not the hierarchy. */
    bool
    targetsScheduler() const
    {
        return plan.kind == ModelFault::SchedBlock;
    }

    /**
     * Apply the planned hierarchy fault.  Marks the plan applied
     * whether or not a corruption landed, so the injector never fires
     * twice.
     * @retval true model state was corrupted.
     */
    bool apply(Hierarchy &hier);

    /**
     * Apply a SchedBlock fault: leave the running process marked
     * blocked beyond `now`, which the switch-on-miss queue audit
     * must reject.
     * @retval true scheduler state was corrupted.
     */
    bool applyScheduler(Scheduler &sched, Tick now);

    const FaultPlan &planned() const { return plan; }

  private:
    FaultPlan plan;
    bool applied = false;
};

} // namespace rampage

#endif // RAMPAGE_CORE_FAULT_INJECTION_HH
