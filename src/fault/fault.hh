/**
 * @file
 * Deterministic, seeded fault injection for the modelled chip.
 *
 * A FaultPlan is an ordered list of timed fault events — permanent or
 * transient tile failures, NoC link-down and bandwidth-degradation
 * events, probe/ack drop windows, and kernel-store fit failures —
 * parsed from a compact text form (CLI-friendly, round-trips through
 * str()) or generated from a seed. A FaultInjector replays the plan
 * against a Chip on the simulated clock: advanceTo(now) applies every
 * event due at or before now and reports whether the healthy-tile set
 * changed, which is the signal for the runtime to re-schedule onto
 * the survivors. With an empty plan the injector is never constructed
 * and no simulation path changes, so fault-free runs stay
 * byte-identical to the pre-fault code.
 *
 * Plan text grammar (whitespace around tokens is ignored):
 *
 *   plan   := event (';' event)*
 *   event  := kind '@' tick [':' key '=' value (',' key '=' value)*]
 *   kind   := tile_fail | link_down | link_degrade | probe_drop
 *           | store_fit_fail | chip_fail | chip_slow | link_flaky
 *           | payload_corrupt
 *
 * Keys per kind (duration=0 or omitted means permanent; keys that do
 * not belong to a kind are rejected so every accepted plan
 * round-trips through its canonical str() text):
 *   tile_fail:       tile=<id> [duration=<cycles>]
 *   link_down:       tile=<id> dir=<E|W|S|N> [duration=<cycles>]
 *   link_degrade:    tile=<id> dir=<E|W|S|N> factor=<(0,1)>
 *                    [duration=<cycles>]
 *   probe_drop:      prob=<(0,1]> [duration=<cycles>]
 *   store_fit_fail:  [duration=<cycles>]
 *   chip_fail:       chip=<pod chip index> [heal=<cycles>]
 *   chip_slow:       chip=<pod chip index> factor=<(1,inf)>
 *                    [heal=<cycles>]
 *   link_flaky:      chip=<pod chip index> prob=<(0,1)>
 *                    [heal=<cycles>]
 *   payload_corrupt: prob=<(0,1)> [heal=<cycles>]
 *
 * chip_fail is the pod-scope fail-stop fault: a whole chip goes dark.
 * The pod runtime (src/pod) handles it at the router tier —
 * draining and re-routing the dark chip's traffic onto the surviving
 * chips — and heal= gives the ticks until the chip reboots (0 =
 * permanent, like duration).
 *
 * chip_slow, link_flaky and payload_corrupt are the pod-scope *gray*
 * failures (DESIGN.md §15): a straggler chip whose clock dilates by
 * factor=, a chip's interconnect links dropping frames with
 * probability prob= (detected, retransmitted, costed), and silent
 * bit-flips on chip-boundary payloads with probability prob= (caught
 * — and retried — only when end-to-end checksums are on). They all
 * spell their end tick `heal=` like chip_fail.
 *
 * Only the pod replays the pod-scope kinds, from PodConfig::faultPlan
 * at any chip count. A FaultInjector replays one chip's internals
 * (for ServeRuntime, MTenantRuntime, System and each pod chip) and
 * rejects them.
 *
 * Example: "tile_fail@5000000:tile=17;probe_drop@0:prob=0.3,duration=100000"
 */

#ifndef ADYNA_FAULT_FAULT_HH
#define ADYNA_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "common/types.hh"

namespace adyna::fault {

/** The supported fault event kinds. */
enum class FaultKind {
    TileFail,     ///< a tile stops computing
    LinkDown,     ///< a directed NoC link goes dark
    LinkDegrade,  ///< a directed NoC link loses bandwidth
    ProbeDrop,    ///< probe/ack round trips start dropping
    StoreFitFail, ///< compiled kernel stores stop fitting on-chip
    ChipFail,     ///< a whole pod chip goes dark (pod scope)
    ChipSlow,     ///< a pod chip's clock dilates (straggler)
    LinkFlaky,    ///< a chip's interconnect links drop frames
    PayloadCorrupt, ///< chip-boundary payloads take bit-flips
};

/** Canonical lower-case name of a fault kind. */
const char *faultKindName(FaultKind kind);

/** The kind targets the pod tier (chip_fail / chip_slow /
 * link_flaky / payload_corrupt) rather than a single chip's
 * internals. Pod plans may only hold pod-scope kinds; a
 * FaultInjector (every single-chip plan) rejects them. */
bool podScopeFault(FaultKind kind);

/** One timed fault event. */
struct FaultEvent
{
    FaultKind kind = FaultKind::TileFail;

    /** Chip tick the fault strikes at. */
    Tick at = 0;

    /** Target tile (TileFail / LinkDown / LinkDegrade). */
    TileId tile = 0;

    /** Link direction, an arch::LinkDir (LinkDown / LinkDegrade). */
    int dir = 0;

    /** LinkDegrade: remaining bandwidth fraction in (0, 1).
     *  ProbeDrop: drop probability in (0, 1].
     *  ChipSlow: clock dilation factor in (1, inf).
     *  LinkFlaky / PayloadCorrupt: per-transfer fault probability in
     *  (0, 1). */
    double factor = 0.5;

    /** ChipFail / ChipSlow / LinkFlaky: pod chip index the fault
     * strikes. The parser only checks non-negativity; the pod
     * runtime validates the index against its own chip count. */
    int chip = 0;

    /** Ticks until the fault heals; 0 = permanent. The pod-scope
     * kinds spell this key `heal=` in the plan text. */
    Tick duration = 0;

    bool operator==(const FaultEvent &) const = default;
};

/** A replayable fault timeline. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Sort events by (at, kind, tile, dir, chip) into canonical
     * order. */
    void normalize();

    /** Canonical text form; parse(str()) reproduces the plan. */
    std::string str() const;

    bool operator==(const FaultPlan &) const = default;
};

/**
 * Parse the plan grammar above into @p plan (normalized). Returns
 * false and sets @p error (when non-null) on malformed input without
 * touching @p plan; never crashes on arbitrary text, so the parser is
 * fuzzable.
 */
bool parseFaultPlan(const std::string &text, FaultPlan &plan,
                    std::string *error = nullptr);

/** Parse or die with a clear message (for CLI paths). */
FaultPlan parseFaultPlanOrDie(const std::string &text);

/** Shape of a generated random fault timeline. */
struct RandomFaultConfig
{
    /** Ticks the timeline spans; events land in [0.1, 0.8] of it. */
    Tick horizon = 50'000'000;

    int tileFails = 1;
    int linkDowns = 1;
    int linkDegrades = 1;
    int probeDropWindows = 1;
    int storeFitWindows = 0;
    int chipFails = 0;
    int chipSlows = 0;
    int linkFlakies = 0;
    int payloadCorrupts = 0;

    /** Pod size the chip_fail / chip_slow / link_flaky targets are
     * drawn from. */
    int podChips = 4;

    /** Probability an event is transient (heals before the horizon)
     * rather than permanent. */
    double transientFraction = 0.5;

    /** Grid the tile / link targets are drawn from. */
    int gridRows = 12;
    int gridCols = 12;
};

/** Deterministic random plan: same (config, seed) -> same plan. */
FaultPlan randomFaultPlan(const RandomFaultConfig &cfg,
                          std::uint64_t seed);

/** Injection counters plus a live-state snapshot. */
struct FaultStats
{
    // Events applied so far.
    std::uint64_t tileFailEvents = 0;
    std::uint64_t tileRecoveries = 0;
    std::uint64_t linkDownEvents = 0;
    std::uint64_t linkDegradeEvents = 0;
    std::uint64_t linkRecoveries = 0;
    std::uint64_t probeDropWindows = 0;
    std::uint64_t storeFitWindows = 0;

    // Live state at snapshot time.
    int failedTiles = 0;
    int downLinks = 0;
    int degradedLinks = 0;

    // NoC fault-handling counters (merged from the chip).
    std::uint64_t probeDrops = 0;
    std::uint64_t probeRetries = 0;
    std::uint64_t probeGiveUps = 0;
    std::uint64_t detourRoutes = 0;
    std::uint64_t unroutablePaths = 0;

    bool operator==(const FaultStats &) const = default;
};

/** Salt of a run's fault streams: every runtime (System, ServeRuntime,
 * MTenantRuntime, PodRuntime) seeds its injector, and the pod its
 * interconnect and chips, from its run seed ^ kSeedSalt. */
inline constexpr std::uint64_t kSeedSalt = 0xda3e39cb94b95bdbULL;

/** Replays a FaultPlan against a chip on the simulated clock. */
class FaultInjector
{
  public:
    /** @param plan single-chip kinds only: a pod-scope kind is a
     * fatal configuration error.
     * @param seed drives the probe-drop Bernoulli streams (derived
     * per window so replays are exact). */
    FaultInjector(FaultPlan plan, std::uint64_t seed);

    /**
     * Apply every event due at or before @p now to @p chip.
     * @return true when the healthy-tile set changed (a tile failed
     * or recovered) — the caller's signal to fail over.
     */
    bool advanceTo(Tick now, arch::Chip &chip);

    /**
     * Tiles whose health flipped during the most recent advanceTo()
     * (failures and recoveries, ascending, deduplicated). Lets a
     * multi-tenant runtime repair only the partition that owns the
     * struck tile instead of rebuilding the whole chip.
     */
    const std::vector<TileId> &changedTiles() const
    {
        return changedTiles_;
    }

    /** A kernel-store fit-failure window covers @p now. */
    bool storeFitFailActive(Tick now) const;

    /** Every event (including scheduled recoveries) has fired. */
    bool exhausted() const { return cursor_ >= timeline_.size(); }

    /** Counters merged with @p chip's live fault state. */
    FaultStats stats(const arch::Chip &chip) const;

    const FaultPlan &plan() const { return plan_; }

  private:
    /** Plan event plus recovery flag (transient faults expand into a
     * strike entry and a heal entry on the internal timeline). */
    struct TimedEvent
    {
        FaultEvent event;
        Tick at = 0;
        bool recover = false;
    };

    void apply(const TimedEvent &te, arch::Chip &chip,
               bool &healthy_changed);

    FaultPlan plan_;
    std::vector<TimedEvent> timeline_;
    std::size_t cursor_ = 0;
    std::uint64_t seed_ = 0;
    FaultStats stats_;

    /** Health flips of the last advanceTo() (see changedTiles()). */
    std::vector<TileId> changedTiles_;
    /** [start, end) store-fit-failure windows, end = max() when
     * permanent. */
    std::vector<std::pair<Tick, Tick>> storeFitSpans_;
};

} // namespace adyna::fault

#endif // ADYNA_FAULT_FAULT_HH
