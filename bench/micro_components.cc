/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * NoC transfers, HBM gap-filling, the mapping search, kernel
 * dispatch, metadata encode/decode, the sampling algorithm, and
 * trace generation.
 */

#include <benchmark/benchmark.h>

#include "arch/hbm.hh"
#include "arch/noc.hh"
#include "core/sampling.hh"
#include "costmodel/mapper.hh"
#include "graph/parser.hh"
#include "kernels/codec.hh"
#include "kernels/store.hh"
#include "models/models.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;

void
BM_NocTransfer(benchmark::State &state)
{
    arch::HwConfig hw;
    arch::Noc noc(hw);
    Tick t = 0;
    for (auto _ : state) {
        const auto tr = noc.transfer(t, 0, 77, 4096);
        benchmark::DoNotOptimize(tr.end);
        t += 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocTransfer);

void
BM_HbmGapFill(benchmark::State &state)
{
    arch::HwConfig hw;
    arch::Hbm hbm(hw);
    std::uint64_t i = 0;
    for (auto _ : state) {
        // Alternating late/early requests exercise the gap search.
        const Tick t = i % 2 == 0 ? 1000000 + i : i;
        const auto a = hbm.access(t, 0, 4096);
        benchmark::DoNotOptimize(a.end);
        ++i;
        if (i % 4096 == 0)
            hbm.reset();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HbmGapFill);

void
BM_MapperSearch(benchmark::State &state)
{
    costmodel::TechParams tech;
    graph::OpNode op;
    op.kind = graph::OpKind::Conv2d;
    op.dims = graph::LoopDims::conv(128, 256, 128, 14, 14, 3, 3);
    std::int64_t n = 1;
    for (auto _ : state) {
        costmodel::Mapper mapper(tech); // cold cache each iteration
        const auto m = mapper.search(op, 1 + (n++ % 128), 6);
        benchmark::DoNotOptimize(m.tiles);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapperSearch);

void
BM_KernelDispatch(benchmark::State &state)
{
    kernels::KernelStore store;
    for (std::int64_t v : kernels::uniformKernelValues(8192, 32)) {
        kernels::Kernel k;
        k.value = v;
        store.add(std::move(k));
    }
    std::int64_t v = 1;
    for (auto _ : state) {
        const auto d = store.dispatch(1 + (v++ % 8192));
        benchmark::DoNotOptimize(d.index);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelDispatch);

void
BM_KernelCodecRoundTrip(benchmark::State &state)
{
    costmodel::TechParams tech;
    costmodel::Mapper mapper(tech);
    graph::OpNode op;
    op.kind = graph::OpKind::MatMul;
    op.dims = graph::LoopDims::matmul(128, 512, 256);
    const auto m = mapper.search(op, 96, 6);
    for (auto _ : state) {
        const auto img = kernels::encodeKernel(m, 1, tech);
        const auto back = kernels::decodeKernel(img);
        benchmark::DoNotOptimize(back.tiles);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCodecRoundTrip);

void
BM_ResampleKernelValues(benchmark::State &state)
{
    const auto vals = kernels::uniformKernelValues(8192, 32);
    std::vector<double> freq(vals.size());
    for (std::size_t i = 0; i < freq.size(); ++i)
        freq[i] = static_cast<double>((i * 23) % 97);
    for (auto _ : state) {
        const auto out = core::resampleKernelValues(
            vals, freq, static_cast<int>(vals.size()));
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResampleKernelValues);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto bundle = models::buildTutelMoe(128);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceGenerator gen(dg, bundle.traceConfig, 1);
    for (auto _ : state) {
        const auto r = gen.next();
        benchmark::DoNotOptimize(r.outcomes.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_EvalKernel(benchmark::State &state)
{
    costmodel::TechParams tech;
    costmodel::Mapper mapper(tech);
    graph::OpNode op;
    op.kind = graph::OpKind::Conv2d;
    op.dims = graph::LoopDims::conv(128, 128, 128, 28, 28, 3, 3);
    const auto m = mapper.search(op, 128, 4);
    std::int64_t v = 1;
    for (auto _ : state) {
        const auto c = costmodel::evalKernel(op, m, 1 + (v++ % 128),
                                             true, tech);
        benchmark::DoNotOptimize(c.cycles);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalKernel);

} // namespace

BENCHMARK_MAIN();
