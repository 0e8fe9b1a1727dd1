/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: the
 * cache tag walk, TLB lookup (hit and miss), insert and invalidate,
 * inverted-page-table lookup, synthetic trace generation, Rambus
 * pricing, whole-hierarchy access and handler-trace replay.
 * These document the simulator's own performance (references per
 * second), which bounds how far RAMPAGE_FULL-scale runs can go.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/sweep.hh"
#include "dram/rambus.hh"
#include "os/inverted_page_table.hh"
#include "tlb/tlb.hh"
#include "trace/benchmarks.hh"
#include "trace/handlers.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace
{

using namespace rampage;

void
BM_CacheAccess(benchmark::State &state)
{
    CacheParams params;
    params.sizeBytes = 16 * kib;
    params.blockBytes = 32;
    params.assoc = static_cast<unsigned>(state.range(0));
    SetAssocCache cache(params);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 18), false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(8);

void
BM_TlbLookup(benchmark::State &state)
{
    Tlb tlb;
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn)
        tlb.insert(0, vpn, vpn);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(0, rng.below(96)).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

/** A full paper TLB (64 entries, fully associative) over vpns 0-63. */
Tlb
fullTlb()
{
    Tlb tlb;
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn)
        tlb.insert(0, vpn, vpn);
    return tlb;
}

void
BM_TlbLookupMiss(benchmark::State &state)
{
    Tlb tlb = fullTlb();
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.lookup(0, 64 + rng.below(4096)).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupMiss);

void
BM_TlbInsert(benchmark::State &state)
{
    // Every insert is a new page, so each one evicts a random victim.
    Tlb tlb = fullTlb();
    std::uint64_t vpn = 64;
    for (auto _ : state) {
        tlb.insert(0, vpn, vpn);
        ++vpn;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbInsert);

void
BM_TlbInvalidate(benchmark::State &state)
{
    // Invalidate a resident page and refill the freed way, the TLB
    // side of a RAMpage page replacement (§2.3).
    Tlb tlb = fullTlb();
    Rng rng(4);
    for (auto _ : state) {
        std::uint64_t vpn = rng.below(64);
        benchmark::DoNotOptimize(tlb.invalidate(0, vpn));
        tlb.insert(0, vpn, vpn);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbInvalidate);

void
BM_IptLookup(benchmark::State &state)
{
    InvertedPageTable ipt(4096, 0);
    for (std::uint64_t f = 0; f < 4096; ++f)
        ipt.insert(f, 0, f * 3);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ipt.lookup(0, rng.below(4096) * 3).found);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IptLookup);

void
BM_SyntheticGeneration(benchmark::State &state)
{
    // The batched path the simulator drives: one fill() per 4096-ref
    // chunk, so Time is per chunk and items_per_second per reference.
    SyntheticProgram prog(benchmarkProfile("gcc"), 0);
    std::vector<MemRef> buf(4096);
    for (auto _ : state) {
        prog.fill(buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_SyntheticGeneration);

void
BM_RambusPricing(benchmark::State &state)
{
    DirectRambus rambus;
    std::uint64_t bytes = 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rambus.readPs(bytes));
        bytes = bytes >= 4096 ? 2 : bytes * 2;
    }
}
BENCHMARK(BM_RambusPricing);

void
BM_ConventionalAccess(benchmark::State &state)
{
    auto hier = makeHierarchy(
        baselineConfig(1'000'000'000ull, state.range(0)));
    SyntheticProgram prog(benchmarkProfile("gcc"), 0);
    MemRef ref;
    for (auto _ : state) {
        prog.next(ref);
        benchmark::DoNotOptimize(hier->access(ref).cpuPs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConventionalAccess)->Arg(128)->Arg(4096);

void
BM_RampageAccess(benchmark::State &state)
{
    auto hier = makeHierarchy(
        rampageConfig(1'000'000'000ull, state.range(0)));
    SyntheticProgram prog(benchmarkProfile("gcc"), 0);
    MemRef ref;
    for (auto _ : state) {
        prog.next(ref);
        benchmark::DoNotOptimize(hier->access(ref).cpuPs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RampageAccess)->Arg(128)->Arg(1024)->Arg(4096);

/**
 * Handler-trace replay: one ~400-reference context-switch body per
 * iteration, on the 128 B baseline (arg 0) and on RAMpage with
 * 128 B pages (arg 1).  The OS text stays L1-resident between
 * switches, as it does between the simulator's time slices.
 */
void
BM_ContextSwitchTrace(benchmark::State &state)
{
    constexpr std::uint64_t hz = 1'000'000'000ull;
    auto hier = state.range(0) == 0
                    ? makeHierarchy(baselineConfig(hz, 128))
                    : makeHierarchy(rampageConfig(hz, 128));
    state.SetLabel(hier->name());
    for (auto _ : state)
        benchmark::DoNotOptimize(hier->runContextSwitchTrace());
    state.SetItemsProcessed(state.iterations() *
                            HandlerTraces::contextSwitchLength);
}
BENCHMARK(BM_ContextSwitchTrace)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
