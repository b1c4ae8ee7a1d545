/**
 * @file
 * The pod's front-end request router: picks a back-end chip for each
 * arriving request from a per-chip status snapshot. Three policies:
 *
 *  - LeastLoaded: the chip with the smallest projected backlog
 *    (engine busy horizon plus queued work), ties to the lowest chip
 *    id — deterministic, so reports are byte-stable.
 *  - Affinity: the chip whose installed schedule's mean dynamic load
 *    is nearest the request's own routing signature
 *    (trace::totalDynLoad). Requests that look like the traffic a
 *    chip's schedule was built for keep that chip's drift monitor
 *    quiet, avoiding drift-triggered reconfigs; ties break to the
 *    lower projected load, then the lowest id.
 *  - RoundRobin: a rotating cursor over the eligible chips — the
 *    no-information baseline.
 *
 * Backpressure: a chip whose queue has reached the router's
 * queueLimit is skipped (the request is *diverted* to the next chip
 * in policy order), and when every eligible chip is full the request
 * is shed at the front door — brownout instead of unbounded queues.
 *
 * Fail-over: with reRouteOnFailure (adaptive) dark chips are simply
 * ineligible. Without it (static pinning) the router ignores health
 * and keeps dispatching as if every chip were alive — the runtime
 * then sheds whatever lands on a dark chip, which is exactly the
 * strawman the adaptive-beats-static gate measures against.
 */

#ifndef ADYNA_POD_ROUTER_HH
#define ADYNA_POD_ROUTER_HH

#include <cstdint>
#include <vector>

namespace adyna::pod {

/** The supported dispatch policies. */
enum class RoutePolicy {
    LeastLoaded, ///< smallest projected backlog
    Affinity,    ///< nearest installed-schedule load signature
    RoundRobin,  ///< rotating cursor
};

/** Canonical lower-case name of a routing policy. */
const char *routePolicyName(RoutePolicy policy);

/** Router options. */
struct RouterConfig
{
    RoutePolicy policy = RoutePolicy::LeastLoaded;

    /** Per-chip admission backpressure: a chip with this many
     * requests queued is skipped, and when every eligible chip is
     * full the request is shed. 0 = unlimited. */
    std::size_t queueLimit = 0;

    /** Route around dark chips (adaptive fail-over); false is static
     * pinning — the router pretends every chip is alive and the
     * runtime sheds what lands on a dark one. */
    bool reRouteOnFailure = true;
};

/** One chip's status snapshot at route time. */
struct ChipStatus
{
    /** The chip is up (not struck by chip_fail). */
    bool alive = true;

    /** The chip serves the request's model (placement-dependent;
     * always true under replicated placement). */
    bool servesModel = true;

    /** The chip's circuit breaker admits new work (an open breaker
     * drains organically: queued work keeps executing but no new
     * arrivals land). Always true when the breaker is off. */
    bool admittable = true;

    /** Requests sitting in the chip's admission queue. */
    std::size_t queued = 0;

    /** Projected backlog at route time, ticks: engine busy horizon
     * plus the queued requests' estimated service. */
    double load = 0.0;

    /** Mean per-request dynamic load the chip's installed schedule
     * was built for (the affinity target). */
    double installedLoadMean = 0.0;
};

/** Where one request goes. */
struct RouteDecision
{
    /** Shed at the front door (no eligible chip had room). */
    static constexpr int kShed = -1;

    int chip = kShed;

    /** Affinity policy only: the chosen chip was the
     * nearest-signature chip (not a backpressure divert). */
    bool affinityHit = false;

    /** Backpressure skipped the policy's first choice. */
    bool diverted = false;
};

/** Deterministic front-end dispatch over K chips. */
class Router
{
  public:
    Router(RouterConfig cfg, int chips);

    /**
     * Pick a chip for a request with routing signature @p signature
     * (trace::totalDynLoad of its dynamism draw; only Affinity reads
     * it). @p status must have one entry per chip.
     */
    RouteDecision route(const std::vector<ChipStatus> &status,
                        double signature);

    // Cumulative accounting across route() calls.
    std::uint64_t affinityHits() const { return affinityHits_; }
    std::uint64_t affinityMisses() const { return affinityMisses_; }
    std::uint64_t diverted() const { return diverted_; }
    std::uint64_t shed() const { return shed_; }

  private:
    bool eligible(const ChipStatus &s) const;
    bool hasRoom(const ChipStatus &s) const;

    RouterConfig cfg_;
    int chips_ = 0;
    int cursor_ = 0; ///< RoundRobin position

    std::uint64_t affinityHits_ = 0;
    std::uint64_t affinityMisses_ = 0;
    std::uint64_t diverted_ = 0;
    std::uint64_t shed_ = 0;
};

} // namespace adyna::pod

#endif // ADYNA_POD_ROUTER_HH
