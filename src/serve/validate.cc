#include "serve/validate.hh"

#include <set>

#include "common/logging.hh"
#include "serve/tenant.hh"

namespace adyna::serve {

const char *
sloClassName(SloClass cls)
{
    switch (cls) {
    case SloClass::LatencyCritical:
        return "latency-critical";
    case SloClass::Standard:
        return "standard";
    case SloClass::BestEffort:
        return "best-effort";
    }
    return "?";
}

double
sloClassWeight(SloClass cls)
{
    switch (cls) {
    case SloClass::LatencyCritical:
        return 4.0;
    case SloClass::Standard:
        return 2.0;
    case SloClass::BestEffort:
        return 1.0;
    }
    return 1.0;
}

void
validateArrivalConfig(const ArrivalConfig &cfg)
{
    if (cfg.ratePerSec <= 0.0)
        ADYNA_FATAL("ArrivalConfig.ratePerSec must be > 0 "
                    "requests/sec (got ",
                    cfg.ratePerSec, ")");
    if (cfg.kind == ArrivalKind::Bursty) {
        if (cfg.burstRateMultiplier < 1.0)
            ADYNA_FATAL("ArrivalConfig.burstRateMultiplier must be "
                        ">= 1 (got ",
                        cfg.burstRateMultiplier, ")");
        if (cfg.burstFraction <= 0.0 || cfg.burstFraction >= 1.0)
            ADYNA_FATAL("ArrivalConfig.burstFraction must be in "
                        "(0, 1) (got ",
                        cfg.burstFraction, ")");
        if (cfg.burstDwellSec <= 0.0)
            ADYNA_FATAL("ArrivalConfig.burstDwellSec must be > 0 "
                        "seconds (got ",
                        cfg.burstDwellSec, ")");
    }
    if (cfg.kind == ArrivalKind::Replay && cfg.traceFile.empty())
        ADYNA_FATAL("ArrivalConfig.traceFile must name an "
                    "arrival-timestamp file when kind is Replay");
}

void
validateBatchPolicy(const BatchPolicy &policy)
{
    if (policy.maxBatch < 1)
        ADYNA_FATAL("BatchPolicy.maxBatch must be >= 1 (got ",
                    policy.maxBatch, ")");
}

void
validateSloConfig(const SloConfig &cfg)
{
    if (cfg.deadlineMs <= 0.0)
        ADYNA_FATAL("SloConfig.deadlineMs must be > 0 milliseconds "
                    "(got ",
                    cfg.deadlineMs, ")");
}

void
validateDriftConfig(const DriftConfig &cfg)
{
    if (cfg.windowRequests <= 0)
        ADYNA_FATAL("DriftConfig.windowRequests must be > 0 (got ",
                    cfg.windowRequests, ")");
    // The bounds DriftMonitor asserts: an L1 distance between two
    // distributions lies in [0, 2], and a multiplier below 1 puts the
    // trigger inside the calibrated noise floor.
    if (!(cfg.threshold >= 0.0 && cfg.threshold <= 2.0))
        ADYNA_FATAL("DriftConfig.threshold must be in [0, 2] (got ",
                    cfg.threshold, ")");
    if (!(cfg.noiseMultiplier >= 1.0))
        ADYNA_FATAL("DriftConfig.noiseMultiplier must be >= 1 (got ",
                    cfg.noiseMultiplier, ")");
    if (cfg.hysteresisWindows < 1)
        ADYNA_FATAL("DriftConfig.hysteresisWindows must be >= 1 "
                    "(got ",
                    cfg.hysteresisWindows, ")");
    if (cfg.cooldownWindows < 0)
        ADYNA_FATAL("DriftConfig.cooldownWindows must be >= 0 (got ",
                    cfg.cooldownWindows, ")");
}

void
validateServeConfig(const ServeConfig &cfg)
{
    validateArrivalConfig(cfg.arrival);
    validateBatchPolicy(cfg.batching);
    validateSloConfig(cfg.slo);
    validateDriftConfig(cfg.drift);
    if (cfg.numRequests <= 0)
        ADYNA_FATAL("ServeConfig.numRequests must be > 0 (got ",
                    cfg.numRequests, ")");
    if (cfg.profileBatches < 0)
        ADYNA_FATAL("ServeConfig.profileBatches must be >= 0 (got ",
                    cfg.profileBatches, ")");
    if (cfg.searchOnDrift) {
        if (cfg.search.chains < 1)
            ADYNA_FATAL("SearchConfig.chains must be >= 1 (got ",
                        cfg.search.chains, ")");
        if (cfg.search.mutationBudget < 0)
            ADYNA_FATAL("SearchConfig.mutationBudget must be >= 0 "
                        "(got ",
                        cfg.search.mutationBudget, ")");
        if (cfg.search.materializeTop < 1)
            ADYNA_FATAL("SearchConfig.materializeTop must be >= 1 "
                        "(got ",
                        cfg.search.materializeTop, ")");
    }
}

void
validateTenantSpecs(const std::vector<TenantSpec> &tenants)
{
    if (tenants.empty())
        ADYNA_FATAL("a multi-tenant config needs at least one "
                    "TenantSpec (tenants is empty)");
    std::set<std::string> ids;
    for (const TenantSpec &t : tenants) {
        if (t.id.empty())
            ADYNA_FATAL("TenantSpec.id must be non-empty (tenant #",
                        ids.size(), ")");
        if (!ids.insert(t.id).second)
            ADYNA_FATAL("duplicate tenant id \"", t.id,
                        "\" — TenantSpec.id must be unique per run");
        validateServeConfig(t.serve);
        if (t.loadWeight < 0.0)
            ADYNA_FATAL("tenant \"", t.id,
                        "\": loadWeight must be >= 0 (0 derives it "
                        "from the arrival rate; got ",
                        t.loadWeight, ")");
        if (!t.serve.faultPlan.empty())
            ADYNA_FATAL("tenant \"", t.id,
                        "\": per-tenant fault plans are not "
                        "supported — configure the chip-level "
                        "MTenantConfig.faultPlan instead");
    }
}

} // namespace adyna::serve
