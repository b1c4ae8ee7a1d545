#include "serve/drift.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace adyna::serve {

namespace {

/** Equal-width buckets for the L1 distance on wide domains. */
constexpr int kL1Buckets = 8;

} // namespace

OpId
loadSeriesOp(const graph::DynGraph &dg)
{
    return static_cast<OpId>(dg.graph().size());
}

void
recordRequest(arch::Profiler &prof, const graph::DynGraph &dg,
              const trace::BatchRouting &routing)
{
    prof.noteBatch();
    std::int64_t totalLoad = 0;
    for (OpId op : dg.dynamicOps()) {
        const std::int64_t v = routing.dynValue(dg, op);
        prof.recordValue(op, v);
        totalLoad += v;
    }
    prof.recordValue(loadSeriesOp(dg), totalLoad);
}

DriftMonitor::DriftMonitor(DriftConfig cfg) : cfg_(cfg)
{
    ADYNA_ASSERT(cfg_.windowRequests >= 1, "window must be >= 1");
    ADYNA_ASSERT(cfg_.threshold >= 0.0 && cfg_.threshold <= 2.0,
                 "L1 threshold out of range");
    ADYNA_ASSERT(cfg_.hysteresisWindows >= 1,
                 "hysteresis must be >= 1");
    ADYNA_ASSERT(cfg_.cooldownWindows >= 0, "bad cooldown");
    ADYNA_ASSERT(cfg_.noiseMultiplier >= 1.0,
                 "noise multiplier below 1 triggers on noise");
}

void
DriftMonitor::setReference(arch::FreqTables reference)
{
    reference_ = std::move(reference);
    hotStreak_ = 0;
    cooldown_ = cfg_.cooldownWindows;
}

void
DriftMonitor::setNoiseFloor(double floor)
{
    ADYNA_ASSERT(floor >= 0.0, "negative noise floor");
    noiseFloor_ = floor;
}

double
DriftMonitor::effectiveThreshold() const
{
    return std::max(cfg_.threshold,
                    cfg_.noiseMultiplier * noiseFloor_);
}

double
DriftMonitor::distanceTo(const arch::Profiler &profiler) const
{
    const double shape = profiler.driftL1(reference_, kL1Buckets);
    // Total expected load across the comparable ops. Summing before
    // dividing keeps the ratio out of the hands of rare ops whose
    // tiny expectations are pure sampling noise.
    double refSum = 0.0;
    double curSum = 0.0;
    for (std::size_t op = 0; op < reference_.size(); ++op) {
        const FreqHistogram &ref = reference_[op];
        if (ref.empty())
            continue;
        const FreqHistogram &cur = profiler.table(static_cast<OpId>(op));
        if (cur.empty())
            continue;
        refSum += ref.expectation();
        curSum += cur.expectation();
    }
    const double scale =
        refSum <= 0.0
            ? 0.0
            : std::min(std::abs(curSum - refSum) / refSum, 2.0);
    return std::max(shape, scale);
}

bool
DriftMonitor::observe(const arch::Profiler &profiler)
{
    ++windows_;
    lastDistance_ = distanceTo(profiler);

    if (cooldown_ > 0) {
        --cooldown_;
        hotStreak_ = 0;
        return false;
    }
    if (lastDistance_ > effectiveThreshold())
        ++hotStreak_;
    else
        hotStreak_ = 0;
    return hotStreak_ >= cfg_.hysteresisWindows;
}

} // namespace adyna::serve
