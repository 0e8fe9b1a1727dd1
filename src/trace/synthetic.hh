/**
 * @file
 * Synthetic program model: a deterministic, endless reference stream
 * with controllable code/data locality.
 *
 * Substitutes for the NMSU Tracebase R2000 traces the paper drives its
 * simulations with (§4.2), which are no longer distributable.  Each
 * modelled program has:
 *
 *  - a code region walked mostly sequentially with skewed branch
 *    targets (hot loop nests);
 *  - a small, hot stack; a medium global/static region; a large heap;
 *  - optional strided streaming through the heap (the SPECfp92 array
 *    codes);
 *  - slow phase drift of the hot heap window, so working sets change
 *    over time as they do across a real program's phases.
 *
 * All draws come from a per-program seeded Rng, so a profile always
 * regenerates the identical trace.  Real traces captured with Pin or
 * Valgrind can be substituted via FileTraceSource without touching the
 * simulators.
 */

#ifndef RAMPAGE_TRACE_SYNTHETIC_HH
#define RAMPAGE_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <string>

#include "trace/source.hh"
#include "util/random.hh"

namespace rampage
{

/**
 * Tunable description of one synthetic program.  The Table 2 roster
 * (src/trace/benchmarks.hh) instantiates eighteen of these.
 */
struct ProgramProfile
{
    std::string name;        ///< benchmark name (Table 2)
    std::string description; ///< Table 2 description

    double instrMillions = 65.0; ///< Table 2 instruction-fetch count
    double totalMillions = 80.0; ///< Table 2 total reference count

    // --- address-space layout ------------------------------------
    std::uint64_t codeBytes = 256 * 1024;   ///< text segment size
    std::uint64_t stackBytes = 8 * 1024;    ///< hot stack extent
    std::uint64_t globalBytes = 128 * 1024; ///< static/global data
    std::uint64_t heapBytes = 1024 * 1024;  ///< heap extent

    // --- instruction stream behaviour -----------------------------
    double branchTakenRate = 0.15; ///< P(fetch redirects) per instr
    double hotCodeFraction = 0.02; ///< loop-nest share of text
    /** Loop-nest byte cap; larger nests thrash the L1I unrealistically
     *  often across the whole roster. */
    std::uint64_t hotCodeBytesCap = 3 * 1024;
    double hotCodeProb = 0.997;    ///< P(branch target in loop nest)

    // --- data stream behaviour -------------------------------------
    double dataPerInstr = 0.30;   ///< P(an instr carries a data ref)
    double storeFraction = 0.32;  ///< stores among data refs
    double stackFraction = 0.35;  ///< data refs hitting the stack
    double globalFraction = 0.15; ///< data refs hitting globals
    double streamFraction = 0.0;  ///< heap refs that stream (fp codes)
    unsigned streamStride = 8;    ///< streaming stride in bytes
    /** Hot heap window size (absolute; must fit the TLB's reach the
     *  way the paper's traces do — their baseline TLB overhead is
     *  flat and small). */
    std::uint64_t hotDataBytes = 16 * 1024;
    double hotDataProb = 0.99;    ///< P(heap ref lands in hot window)
    /**
     * P(the hot-window cursor jumps to a fresh spot) per hot ref.
     * Between jumps, references walk locally: real data accesses come
     * in bursts against one structure at a time, which is what keeps
     * a 64-entry TLB effective even at small RAMpage page sizes.
     */
    double hotJumpProb = 0.05;
    /** P(a cold heap walk jumps to a fresh region) per cold ref;
     *  between jumps the walk meanders locally (pointer chasing). */
    double coldJumpProb = 0.02;
    /** Hot share of the global/static region (absolute cap 12 KB). */
    double globalJumpProb = 0.05;

    /**
     * Instructions between re-seating the hot heap window and loop
     * nest.  Phase drift (plus the fp streams) is what creates the
     * capacity/conflict traffic at the 4 MB level; per-reference
     * locality stays tight, as in the paper's traces.
     */
    std::uint64_t phaseLength = 400 * 1000;

    std::uint64_t seed = 1; ///< per-program determinism seed
};

/**
 * Endless reference stream generated from a ProgramProfile.  fill() is
 * the generator; next() is fill(&ref, 1), so the stream is the same for
 * every chunk size.
 */
class SyntheticProgram final : public TraceSource
{
  public:
    /**
     * @param profile program behaviour description.
     * @param pid address-space id stamped on every reference.
     */
    SyntheticProgram(const ProgramProfile &profile, Pid pid);

    bool next(MemRef &ref) override;
    std::size_t fill(MemRef *buf, std::size_t n) override;
    void reset() override;
    std::string name() const override { return prof.name; }
    Pid pid() const override { return streamPid; }

    /** References produced since construction / last reset. */
    std::uint64_t generated() const { return refCount; }

    const ProgramProfile &profile() const { return prof; }

    // Virtual address-space layout (MIPS-like, shared by all
    // programs; distinct pids keep the spaces apart).
    static constexpr Addr codeBase = 0x0040'0000;
    static constexpr Addr globalBase = 0x1000'0000;
    static constexpr Addr heapBase = 0x2000'0000;
    static constexpr Addr stackTop = 0x7fff'f000;

  private:
    /**
     * The mutable generator state: everything a reference's draws
     * read and write.  fill() works on a local copy and writes it back
     * at the end, so the state lives in registers: through a member,
     * every MemRef::vaddr store could alias its uint64_t words and
     * force the Rng state back through memory per reference.
     */
    struct Cursor
    {
        Rng rng;
        Addr pc = codeBase;
        Addr hotCodeBase = codeBase; ///< current loop-nest origin
        Addr hotHeapBase = heapBase; ///< current hot heap window origin
        Addr streamPtr = heapBase;   ///< current streaming cursor
        Addr coldPtr = heapBase;     ///< cold pointer-chase cursor
        Addr hotPtr = 0;             ///< hot-window burst cursor
        Addr globalPtr = 0;          ///< global-region burst cursor
        std::uint64_t instrSincePhase = 0;
    };

    /** Draw the next instruction-fetch address. */
    Addr nextFetch(Cursor &c) const;

    /** Draw a data address per the region mix. */
    Addr nextData(Cursor &c) const;

    /** Re-seat the hot heap window and loop nest (phase change). */
    void changePhase(Cursor &c) const;

    /** Loop-nest size: fraction of the text, capped. */
    std::uint64_t hotCodeBytes() const;

    /** Recompute the cached per-profile constants (reset()). */
    void cacheProfileConstants();

    /**
     * Advance a bursty cursor within [base, base+span): a local
     * meander unless `jump` fires, a uniform jump otherwise.
     */
    static Addr burstWalk(Rng &rng, Addr &ptr, Addr base,
                          std::uint64_t span, Rng::Threshold jump);

    ProgramProfile prof;
    Pid streamPid;
    Cursor cur;
    std::uint64_t hotHeapBytes = 0;
    std::uint64_t refCount = 0;

    // Per-profile constants cacheProfileConstants() derives once, so
    // the per-reference path does no floating point beyond the global
    // region cut.  Each feeds a draw bit-identical to the expression
    // it replaces: the probabilities become Rng::Threshold limits
    // (exact; see Rng::unitLimit), one per profile probability of the
    // same name, and the spans are the same integer results.
    std::uint64_t hotCodeCached = 0;  ///< hotCodeBytes() memoised
    std::uint64_t globalHotBytes = 0; ///< bursty hot slice of globals
    std::uint64_t stackSkewHot = 0;   ///< skewedBelow span (stack)
    std::uint64_t globalSkewHot = 0;  ///< skewedBelow span (globals)
    std::uint64_t stackLimit = 0;     ///< unit() < stackFraction
    Rng::Threshold branchTaken{0.0};
    Rng::Threshold hotCode{0.0};
    Rng::Threshold dataRef{0.0};
    Rng::Threshold store{0.0};
    Rng::Threshold stream{0.0};
    Rng::Threshold hotData{0.0};
    Rng::Threshold hotJump{0.0};
    Rng::Threshold coldJump{0.0};
    Rng::Threshold globalJump{0.0};

    bool dataPending = false;
    MemRef pendingRef{};
};

} // namespace rampage

#endif // RAMPAGE_TRACE_SYNTHETIC_HH
