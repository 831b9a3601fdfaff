/**
 * @file
 * Microbenchmarks (google-benchmark) for the runtime primitives whose
 * costs underlie the paper's Section 5 numbers: allocation, the read
 * barrier's fast and cold paths, reference stores, edge-table updates,
 * and full collections at several live-heap sizes.
 */

#include <benchmark/benchmark.h>

#include "gc/edge_table.h"
#include "vm/handles.h"
#include "vm/runtime.h"

using namespace lp;

namespace {

RuntimeConfig
rtConfig(bool barriers)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 64u << 20;
    cfg.enableLeakPruning = barriers;
    cfg.barrierMode = barriers ? BarrierMode::AllTheTime : BarrierMode::None;
    cfg.gcTriggerFraction = 0; // benchmarks collect explicitly
    return cfg;
}

void
BM_AllocateSmall(benchmark::State &state)
{
    Runtime rt(rtConfig(false));
    const class_id_t cls = rt.defineClass("bench.Small", 1,
                                          static_cast<std::uint32_t>(state.range(0)));
    HandleScope scope(rt.roots());
    std::uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.allocate(cls));
        if (++n % 100000 == 0) {
            state.PauseTiming();
            rt.collectNow(); // everything allocated here is garbage
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AllocateSmall)->Arg(16)->Arg(64)->Arg(256);

void
BM_ReadRefNoBarrier(benchmark::State &state)
{
    Runtime rt(rtConfig(false));
    const class_id_t cls = rt.defineClass("bench.Node", 1, 0);
    HandleScope scope(rt.roots());
    Handle a = scope.handle(rt.allocate(cls));
    Handle b = scope.handle(rt.allocate(cls));
    rt.writeRef(a.get(), 0, b.get());
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.readRef(a.get(), 0));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReadRefNoBarrier);

void
BM_ReadRefBarrierFastPath(benchmark::State &state)
{
    Runtime rt(rtConfig(true));
    const class_id_t cls = rt.defineClass("bench.Node", 1, 0);
    HandleScope scope(rt.roots());
    Handle a = scope.handle(rt.allocate(cls));
    Handle b = scope.handle(rt.allocate(cls));
    rt.writeRef(a.get(), 0, b.get());
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.readRef(a.get(), 0));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReadRefBarrierFastPath);

void
BM_ReadRefBarrierColdPath(benchmark::State &state)
{
    // Re-tag the reference before every read so each read takes the
    // out-of-line path (clear bit + reset stale counter).
    Runtime rt(rtConfig(true));
    rt.pruning()->forceState(PruningState::Observe);
    const class_id_t cls = rt.defineClass("bench.Node", 1, 0);
    HandleScope scope(rt.roots());
    Handle a = scope.handle(rt.allocate(cls));
    Handle b = scope.handle(rt.allocate(cls));
    rt.writeRef(a.get(), 0, b.get());
    rt.collectNow(); // sets the stale-check tag
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.readRef(a.get(), 0));
        state.PauseTiming();
        rt.collectNow(); // re-tag
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReadRefBarrierColdPath)->Iterations(2000);

void
BM_WriteRef(benchmark::State &state)
{
    Runtime rt(rtConfig(true));
    const class_id_t cls = rt.defineClass("bench.Node", 1, 0);
    HandleScope scope(rt.roots());
    Handle a = scope.handle(rt.allocate(cls));
    Handle b = scope.handle(rt.allocate(cls));
    for (auto _ : state)
        rt.writeRef(a.get(), 0, b.get());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WriteRef);

void
BM_EdgeTableRecordUse(benchmark::State &state)
{
    EdgeTable table(16 * 1024);
    std::uint32_t i = 0;
    for (auto _ : state) {
        table.recordUse({i % 97, i % 89}, 2 + i % 5);
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EdgeTableRecordUse);

void
BM_EdgeTableSelect(benchmark::State &state)
{
    EdgeTable table(16 * 1024);
    for (std::uint32_t i = 0; i < 1000; ++i)
        table.chargeBytes({i, i + 1}, i * 8);
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < 1000; ++i)
            table.chargeBytes({i, i + 1}, 64);
        benchmark::DoNotOptimize(table.selectMaxBytesAndReset());
    }
}
BENCHMARK(BM_EdgeTableSelect);

void
BM_CollectLiveHeap(benchmark::State &state)
{
    Runtime rt(rtConfig(false));
    const class_id_t cls = rt.defineClass("bench.Node", 2, 16);
    HandleScope scope(rt.roots());
    // A chain of `range` live objects.
    Handle head = scope.handle(nullptr);
    for (std::int64_t i = 0; i < state.range(0); ++i) {
        Handle node = scope.handle(rt.allocate(cls));
        rt.writeRef(node.get(), 0, head.get());
        head.set(node.get());
    }
    for (auto _ : state)
        rt.collectNow();
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollectLiveHeap)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
