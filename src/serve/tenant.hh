/**
 * @file
 * Tenant descriptions for multi-tenant serving: a tenant is one
 * workload with its own serving configuration (arrival process,
 * batching, SLO, drift policy) plus an SLO class that ranks it
 * against the chip's other tenants. The classes drive partition
 * sizing (latency-critical tenants get proportionally more tiles per
 * unit of offered load), priority preemption, and shed ordering in
 * the multi-tenant runtime (`src/mtenant`). The types live in serve
 * so the serving-config validators (`serve/validate.cc`) can check
 * tenant lists without depending on the runtime built on top of
 * them.
 */

#ifndef ADYNA_SERVE_TENANT_HH
#define ADYNA_SERVE_TENANT_HH

#include <string>
#include <vector>

#include "serve/server.hh"

namespace adyna::serve {

/** Service classes, strongest isolation first. */
enum class SloClass {
    LatencyCritical, ///< user-facing tail-latency SLO; may preempt
    Standard,        ///< throughput-oriented, deadline still tracked
    BestEffort,      ///< fills leftover capacity, shed first
};

/** Canonical lower-case class name ("latency-critical", ...). */
const char *sloClassName(SloClass cls);

/** Partition-sizing weight of a class: a tenant's tile share is
 * proportional to offered load x this weight (4 / 2 / 1). */
double sloClassWeight(SloClass cls);

/** One tenant of a multi-tenant serving run. */
struct TenantSpec
{
    /** Unique tenant identifier (serve JSON key; must be non-empty
     * and unique across the run). */
    std::string id;

    SloClass cls = SloClass::Standard;

    /**
     * The tenant's own serving knobs — arrival process, batching,
     * SLO deadline, drift policy, admission control, per-tenant
     * watchdog budget. The chip-level fault timeline belongs to the
     * multi-tenant config, so serve.faultPlan must stay empty here.
     */
    ServeConfig serve;

    /**
     * Offered-load hint for initial partition sizing, in requests
     * per second; 0 (the default) derives it from
     * serve.arrival.ratePerSec. The elastic repartition controller
     * replaces this with measured load once traffic flows.
     */
    double loadWeight = 0.0;
};

/**
 * Validate a multi-tenant tenant list: at least one tenant, every
 * nested ServeConfig valid, non-empty unique ids, non-negative load
 * weights, and no per-tenant fault plans (chip-level faults are
 * configured once for the whole chip).
 * ADYNA_FATAL with the offending tenant id / field on violation.
 */
void validateTenantSpecs(const std::vector<TenantSpec> &tenants);

} // namespace adyna::serve

#endif // ADYNA_SERVE_TENANT_HH
