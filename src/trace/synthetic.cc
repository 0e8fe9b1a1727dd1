#include "trace/synthetic.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace rampage
{

namespace
{

// The generator's fixed probabilities, as chance() thresholds.
constexpr Rng::Threshold stackHotChance{0.99};
constexpr Rng::Threshold globalBurstChance{0.995};
constexpr Rng::Threshold globalHotChance{0.95};
constexpr Rng::Threshold stepDownChance{0.5};
constexpr Rng::Threshold streamRestartChance{0.0005};

} // namespace

SyntheticProgram::SyntheticProgram(const ProgramProfile &profile, Pid pid)
    : prof(profile), streamPid(pid)
{
    RAMPAGE_ASSERT(prof.codeBytes >= 4096, "text segment too small");
    RAMPAGE_ASSERT(prof.heapBytes >= 4096, "heap too small");
    RAMPAGE_ASSERT(prof.stackBytes >= 256, "stack too small");
    reset();
}

void
SyntheticProgram::cacheProfileConstants()
{
    hotCodeCached = hotCodeBytes();
    globalHotBytes =
        std::min<std::uint64_t>(prof.globalBytes, 12 * 1024);
    // The skewed regions' hot spans, exactly as Rng::skewedBelow
    // derives them (fraction 0.08, floored at 1).
    auto skew_hot = [](std::uint64_t bound) {
        std::uint64_t hot = static_cast<std::uint64_t>(
            static_cast<double>(bound) * 0.08);
        return hot == 0 ? std::uint64_t{1} : hot;
    };
    stackSkewHot = skew_hot(prof.stackBytes);
    globalSkewHot = skew_hot(prof.globalBytes);

    stackLimit = Rng::unitLimit(prof.stackFraction);
    branchTaken = Rng::Threshold(prof.branchTakenRate);
    hotCode = Rng::Threshold(prof.hotCodeProb);
    dataRef = Rng::Threshold(prof.dataPerInstr);
    store = Rng::Threshold(prof.storeFraction);
    // Streaming is only drawn for when streamFraction > 0 (a NaN
    // fraction draws nothing), so anything else never fires.
    stream = Rng::Threshold(prof.streamFraction > 0 ? prof.streamFraction
                                                    : 0.0);
    hotData = Rng::Threshold(prof.hotDataProb);
    hotJump = Rng::Threshold(prof.hotJumpProb);
    coldJump = Rng::Threshold(prof.coldJumpProb);
    globalJump = Rng::Threshold(prof.globalJumpProb);
}

void
SyntheticProgram::reset()
{
    cacheProfileConstants();
    hotHeapBytes = prof.hotDataBytes;
    if (hotHeapBytes < 4096)
        hotHeapBytes = 4096;
    if (hotHeapBytes > prof.heapBytes)
        hotHeapBytes = prof.heapBytes;
    cur = Cursor{Rng(prof.seed)};
    refCount = 0;
    dataPending = false;
    changePhase(cur);
}

std::uint64_t
SyntheticProgram::hotCodeBytes() const
{
    std::uint64_t hot = static_cast<std::uint64_t>(
        static_cast<double>(prof.codeBytes) * prof.hotCodeFraction);
    if (hot < 1024)
        hot = 1024;
    if (hot > prof.hotCodeBytesCap)
        hot = prof.hotCodeBytesCap;
    return hot;
}

void
SyntheticProgram::changePhase(Cursor &c) const
{
    // Pick a new hot heap window and a new loop nest, aligned to 256 B
    // so windows overlap cache/page boundaries realistically.
    std::uint64_t heap_span = prof.heapBytes > hotHeapBytes
                                  ? prof.heapBytes - hotHeapBytes
                                  : 1;
    c.hotHeapBase = heapBase + alignDown(c.rng.below(heap_span), 8);

    std::uint64_t hot_code = hotCodeCached;
    std::uint64_t code_span = prof.codeBytes > hot_code
                                  ? prof.codeBytes - hot_code
                                  : 1;
    c.hotCodeBase = codeBase + alignDown(c.rng.below(code_span), 6);
    c.instrSincePhase = 0;
}

// nextFetch, burstWalk and nextData are `inline` so that they inline
// into fill(): a call taking the Cursor by reference would put it back
// in memory.

inline Addr
SyntheticProgram::nextFetch(Cursor &c) const
{
    if (c.rng.chance(branchTaken)) {
        if (c.rng.chance(hotCode)) {
            // Branch within the current loop nest.
            c.pc = c.hotCodeBase +
                   alignDown(c.rng.below(hotCodeCached), 2);
        } else {
            // Long-range call/jump anywhere in the text segment.
            c.pc = codeBase + alignDown(c.rng.below(prof.codeBytes), 2);
        }
    } else {
        c.pc += 4;
        if (c.pc >= codeBase + prof.codeBytes)
            c.pc = c.hotCodeBase;
    }
    return c.pc;
}

inline Addr
SyntheticProgram::burstWalk(Rng &rng, Addr &ptr, Addr base,
                            std::uint64_t span, Rng::Threshold jump)
{
    if (ptr < base || ptr >= base + span || rng.chance(jump)) {
        ptr = base + alignDown(rng.below(span), 3);
    } else {
        std::uint64_t step = 4 + rng.below(28);
        if (rng.chance(stepDownChance)) {
            ptr = ptr >= base + step ? ptr - step : base;
        } else {
            ptr += step;
            if (ptr + 8 >= base + span)
                ptr = base;
        }
    }
    return alignDown(ptr, 2);
}

inline Addr
SyntheticProgram::nextData(Cursor &c) const
{
    // The region cut compares unit() against the stack share as an
    // integer; only the global cut needs the double it subtracts.
    const std::uint64_t region_draw = c.rng.draw53();
    if (region_draw < stackLimit) {
        // Stack: intensely hot within the top frame or two.
        return stackTop - alignDown(
            c.rng.skewedBelowCached(prof.stackBytes, stackSkewHot,
                                    stackHotChance),
            2);
    }
    double region = static_cast<double>(region_draw) * 0x1.0p-53;
    region -= prof.stackFraction;
    if (region < prof.globalFraction) {
        // Bursty accesses against a hot slice of the static data,
        // with a rare skewed excursion over the whole region.
        if (c.rng.chance(globalBurstChance)) {
            return burstWalk(c.rng, c.globalPtr, globalBase,
                             globalHotBytes, globalJump);
        }
        return globalBase + alignDown(
            c.rng.skewedBelowCached(prof.globalBytes, globalSkewHot,
                                    globalHotChance),
            2);
    }
    // Heap reference: streaming or hot-window.
    if (c.rng.chance(stream)) {
        c.streamPtr += prof.streamStride;
        if (c.streamPtr + 8 >= heapBase + prof.heapBytes)
            c.streamPtr = heapBase;
        // Occasionally restart a stream elsewhere (new array sweep).
        if (c.rng.chance(streamRestartChance))
            c.streamPtr =
                heapBase + alignDown(c.rng.below(prof.heapBytes), 6);
        return alignDown(c.streamPtr, 2);
    }
    if (c.rng.chance(hotData)) {
        return burstWalk(c.rng, c.hotPtr, c.hotHeapBase, hotHeapBytes,
                         hotJump);
    }
    // Cold heap traffic is a pointer chase: a local meander with rare
    // long jumps, so consecutive cold references cluster in a page or
    // two (real linked-structure traversals do) rather than spraying
    // the TLB with uniform addresses.
    if (c.rng.chance(coldJump)) {
        c.coldPtr = heapBase + alignDown(c.rng.below(prof.heapBytes), 6);
    } else {
        std::uint64_t step = 16 + c.rng.below(112);
        if (c.rng.chance(stepDownChance)) {
            c.coldPtr = c.coldPtr >= heapBase + step ? c.coldPtr - step
                                                     : heapBase;
        } else {
            c.coldPtr += step;
            if (c.coldPtr + 8 >= heapBase + prof.heapBytes)
                c.coldPtr = heapBase;
        }
    }
    return alignDown(c.coldPtr, 2);
}

bool
SyntheticProgram::next(MemRef &ref)
{
    return fill(&ref, 1) == 1;
}

std::size_t
SyntheticProgram::fill(MemRef *buf, std::size_t n)
{
    // Each instruction fetch is followed, when its data draw fires, by
    // the data reference it carries; one that does not fit in this
    // batch is held back and leads the next, so the stream does not
    // depend on how it is chunked (tests/test_synthetic.cc pins it).
    std::size_t got = 0;
    if (dataPending && got < n) {
        dataPending = false;
        buf[got++] = pendingRef;
    }
    Cursor c = cur;
    while (got < n) {
        MemRef &fetch = buf[got++];
        fetch.vaddr = nextFetch(c);
        fetch.kind = RefKind::IFetch;
        fetch.pid = streamPid;

        if (++c.instrSincePhase >= prof.phaseLength)
            changePhase(c);

        if (c.rng.chance(dataRef)) {
            MemRef data;
            data.vaddr = nextData(c);
            data.kind = c.rng.chance(store) ? RefKind::Store
                                            : RefKind::Load;
            data.pid = streamPid;
            if (got < n) {
                buf[got++] = data;
            } else {
                pendingRef = data;
                dataPending = true;
            }
        }
    }
    cur = c;
    refCount += n;
    return n;
}

} // namespace rampage
