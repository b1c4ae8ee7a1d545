/**
 * @file
 * Test helper: the dyn-value expectations of an offline profile
 * (core::profileOffline without kernel sampling) on the probe stream
 * a run seed derives.
 */

#ifndef ADYNA_TESTS_PROBE_EXPECTATIONS_HH
#define ADYNA_TESTS_PROBE_EXPECTATIONS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "arch/profiler.hh"
#include "core/sampling.hh"
#include "trace/trace.hh"

namespace adyna::test {

/** Expectation per dynamic op over @p batches batches of the probe
 * stream of (@p dg, @p cfg, core::probeSeed(@p seed)). */
inline std::map<OpId, double>
probeExpectations(const graph::DynGraph &dg, const trace::TraceConfig &cfg,
                  std::uint64_t seed, int batches)
{
    trace::TraceGenerator probe(dg, cfg, core::probeSeed(seed));
    arch::Profiler prof;
    std::map<OpId, double> expectations;
    std::map<OpId, std::vector<std::int64_t>> noKernels;
    core::profileOffline(
        prof, dg, batches, [&](int) { return probe.next(); }, false,
        expectations, noKernels);
    return expectations;
}

} // namespace adyna::test

#endif // ADYNA_TESTS_PROBE_EXPECTATIONS_HH
