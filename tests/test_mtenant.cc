/**
 * @file
 * Unit tests for the multi-tenant serving layer: TilePartitioner
 * geometry (disjoint full-grid cover, per-tenant floors, share
 * proportionality, determinism, mode behaviour), boundary-link
 * enumeration and interference degrades, the 1-tenant byte-identity
 * gate against serve::ServeRuntime, multi-tenant run determinism,
 * elastic repartitioning, partition-local fail-over, and the on-drift
 * schedule search for every tenant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/noc.hh"
#include "baselines/designs.hh"
#include "fault/fault.hh"
#include "graph/parser.hh"
#include "json_check.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "mtenant/partition.hh"
#include "mtenant/runtime.hh"
#include "serve/server.hh"
#include "serve_fixtures.hh"

namespace {

using namespace adyna;
using namespace adyna::mtenant;

// ---------------------------------------------------- TilePartitioner

// Every partition mode must yield regions that cover the grid and --
// outside SharedGrid -- never overlap.
void
expectDisjointCover(const arch::HwConfig &hw,
                    const std::vector<TileRegion> &regions)
{
    std::set<TileId> seen;
    for (const TileRegion &r : regions) {
        for (TileId t : r.tiles(hw)) {
            EXPECT_TRUE(seen.insert(t).second)
                << "tile " << t << " assigned twice";
        }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), hw.tiles());
}

TEST(Partitioner, DisjointCoverAndFloorsAcrossShareMixes)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const std::vector<std::vector<double>> mixes = {
        {1.0},
        {1.0, 1.0},
        {4.0, 1.0},
        {8.0, 2.0, 1.0},
        {1.0, 1.0, 1.0, 1.0},
        {100.0, 1.0, 1.0},
    };
    for (const auto &shares : mixes) {
        const auto regions = part.partition(shares);
        ASSERT_EQ(regions.size(), shares.size());
        expectDisjointCover(hw, regions);
        for (const TileRegion &r : regions)
            EXPECT_GE(r.tileCount(), kMinTilesPerTenant);
    }
}

TEST(Partitioner, SharesDriveRegionSizes)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const auto regions = part.partition({3.0, 1.0});
    ASSERT_EQ(regions.size(), 2u);
    // A 3:1 share split on a 144-tile grid: the heavy tenant gets
    // roughly three quarters of the tiles (guillotine rounding may
    // shift a row or column).
    EXPECT_GT(regions[0].tileCount(), regions[1].tileCount());
    EXPECT_NEAR(regions[0].tileCount(), hw.tiles() * 3 / 4,
                hw.gridRows);
}

TEST(Partitioner, DeterministicForEqualInputs)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const std::vector<double> shares = {2.0, 1.0, 1.5};
    const auto a = part.partition(shares);
    const auto b = part.partition(shares);
    EXPECT_EQ(a, b);
}

TEST(Partitioner, SingleTenantGetsFullGrid)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const auto regions = part.partition({1.0});
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].tileCount(), hw.tiles());
    EXPECT_TRUE(part.boundaryLinks(regions).empty());
}

TEST(Partitioner, EvenSplitIgnoresShares)
{
    const arch::HwConfig hw;
    PartitionPolicy pp;
    pp.kind = PartitionKind::EvenSplit;
    TilePartitioner part(hw, pp);
    const auto skewed = part.partition({100.0, 1.0, 1.0});
    const auto flat = part.partition({1.0, 1.0, 1.0});
    EXPECT_EQ(skewed, flat);
    expectDisjointCover(hw, skewed);
    int lo = hw.tiles(), hi = 0;
    for (const TileRegion &r : skewed) {
        lo = std::min(lo, r.tileCount());
        hi = std::max(hi, r.tileCount());
    }
    // Near-equal sizes: no region more than one grid edge away from
    // another.
    EXPECT_LE(hi - lo, std::max(hw.gridRows, hw.gridCols));
}

TEST(Partitioner, SharedGridAliasesFullGrid)
{
    const arch::HwConfig hw;
    PartitionPolicy pp;
    pp.kind = PartitionKind::SharedGrid;
    TilePartitioner part(hw, pp);
    const auto regions = part.partition({3.0, 1.0});
    ASSERT_EQ(regions.size(), 2u);
    for (const TileRegion &r : regions)
        EXPECT_EQ(r.tileCount(), hw.tiles());
    EXPECT_TRUE(part.boundaryLinks(regions).empty());
    EXPECT_TRUE(
        part.interferenceDegrades(regions, {3.0, 1.0}).empty());
}

TEST(Partitioner, BoundaryLinksCrossRegionsAndAreSorted)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const std::vector<double> shares = {2.0, 1.0, 1.0};
    const auto regions = part.partition(shares);
    const auto links = part.boundaryLinks(regions);
    ASSERT_FALSE(links.empty());
    for (std::size_t i = 0; i < links.size(); ++i) {
        const BoundaryLink &l = links[i];
        // The link really crosses a partition boundary...
        EXPECT_NE(l.fromRegion, l.toRegion);
        EXPECT_TRUE(regions[static_cast<std::size_t>(l.fromRegion)]
                        .contains(hw, l.tile));
        const TileId nbr = arch::torusNeighbor(hw, l.tile, l.dir);
        EXPECT_TRUE(regions[static_cast<std::size_t>(l.toRegion)]
                        .contains(hw, nbr));
        // ...and the list is ascending by (tile, dir).
        if (i > 0) {
            const BoundaryLink &p = links[i - 1];
            EXPECT_TRUE(p.tile < l.tile ||
                        (p.tile == l.tile && p.dir < l.dir));
        }
    }
}

TEST(Partitioner, InterferenceDegradesBoundedAndGatedByAlpha)
{
    const arch::HwConfig hw;
    PartitionPolicy pp;
    pp.interferenceAlpha = 0.5;
    TilePartitioner part(hw, pp);
    const std::vector<double> shares = {2.0, 1.0};
    const auto regions = part.partition(shares);
    const auto degrades = part.interferenceDegrades(regions, shares);
    ASSERT_FALSE(degrades.empty());
    std::set<std::pair<TileId, int>> keys;
    for (const InterferenceDegrade &d : degrades) {
        EXPECT_GT(d.factor, 0.0);
        EXPECT_LT(d.factor, 1.0); // alpha > 0 => a real degrade
        EXPECT_TRUE(keys.insert({d.tile, d.dir}).second)
            << "duplicate (tile, dir)";
    }

    PartitionPolicy off = pp;
    off.interferenceAlpha = 0.0;
    TilePartitioner quiet(hw, off);
    EXPECT_TRUE(
        quiet.interferenceDegrades(regions, shares).empty());
}

// ------------------------------------------------------ MTenantRuntime

using test::smokeServeConfig;
using test::TestWorkload;

MTenantReport
singleTenantRun(baselines::Design design, MTenantConfig mc,
                const serve::ServeConfig &sc, const TestWorkload &w)
{
    serve::TenantSpec ts;
    ts.id = "solo";
    ts.serve = sc;
    mc.tenants.push_back(ts);
    MTenantRuntime rt({{&w.dg, w.tc, w.name}}, arch::HwConfig{},
                      baselines::schedulerConfig(design),
                      baselines::execPolicy(design), mc);
    kernels::KernelStoreCache stores;
    rt.setSharedStoreCache(&stores);
    return rt.run();
}

/** Run one tenant and a ServeRuntime on the same serving config,
 * with @p plan as the chip's fault plan, and expect byte-identical
 * serve reports; returns the tenant's report. */
serve::ServeReport
expectSingleTenantMatchesServe(baselines::Design design,
                               const TestWorkload &w,
                               const serve::ServeConfig &sc,
                               const fault::FaultPlan &plan)
{
    const arch::HwConfig hw;
    serve::ServeConfig direct = sc;
    direct.faultPlan = plan;
    serve::ServeRuntime rt(w.dg, w.tc, hw,
                           baselines::schedulerConfig(design),
                           baselines::execPolicy(design), direct,
                           w.name);
    kernels::KernelStoreCache directStores;
    rt.setSharedStoreCache(&directStores);
    const std::string want = serve::toJson(rt.run());

    MTenantConfig mc;
    mc.faultPlan = plan;
    const MTenantReport mr = singleTenantRun(design, mc, sc, w);
    const char *name = baselines::designName(design);
    EXPECT_EQ(mr.tenants.size(), 1u) << name;
    if (mr.tenants.size() != 1)
        return {};
    EXPECT_EQ(serve::toJson(mr.tenants[0].serve), want) << name;
    EXPECT_EQ(mr.tenants[0].tiles, hw.tiles()) << name;
    EXPECT_EQ(mr.repartitions, 0) << name;
    EXPECT_EQ(mr.tenantSwitches, 0) << name;
    return mr.tenants[0].serve;
}

TEST(MTenantRuntime, SingleTenantMatchesServeRuntimeByteForByte)
{
    // One tenant runs the multi-tenant loop itself; Design::MTenant's
    // exact kernels make the engine ask the mapper, so its cache
    // counters must be scoped the same way as ServeRuntime's too.
    TestWorkload w("skipnet", 8);
    for (const baselines::Design design :
         {baselines::Design::Adyna, baselines::Design::MTenant})
        expectSingleTenantMatchesServe(design, w,
                                       smokeServeConfig(7, 200), {});

    // Tile 100 fails over, then every tile dies: with no survivor
    // both runtimes keep the installed schedule (one fail-over).
    serve::ServeConfig slow = smokeServeConfig(5, 200);
    slow.arrival.ratePerSec = 2e5;
    const serve::ServeReport dead = expectSingleTenantMatchesServe(
        baselines::Design::Adyna, w, slow,
        test::everyTileDeadPlan(arch::HwConfig{}));
    EXPECT_EQ(dead.failovers, 1);

    // The on-drift search and the watchdog: a generous budget (two
    // re-schedules, one of them searched) and one tight enough to
    // abandon a rebuild.
    TestWorkload pabee("pabee", 8);
    pabee.tc = test::searchDriftTrace(pabee.tc);
    const serve::ServeReport searched = expectSingleTenantMatchesServe(
        baselines::Design::Adyna, pabee,
        test::searchServeConfig(true, 40'000'000, 11), {});
    EXPECT_EQ(searched.reschedules, 2);
    EXPECT_EQ(searched.searchReschedules, 1);
    const serve::ServeReport abandoned = expectSingleTenantMatchesServe(
        baselines::Design::Adyna, pabee,
        test::searchServeConfig(true, 15000, 11), {});
    EXPECT_EQ(abandoned.watchdogFallbacks, 1);
}

TEST(MTenantRuntime, SingleTenantHonoursFailoverOff)
{
    // A tile failure inside the only tenant's region: the chip-level
    // failover switch decides, for one tenant as for many.
    TestWorkload w("skipnet", 8);
    const serve::ServeConfig sc = smokeServeConfig(7, 300);
    MTenantConfig mc;
    mc.faultPlan = fault::parseFaultPlanOrDie("tile_fail@200000:tile=17");

    const MTenantReport on =
        singleTenantRun(baselines::Design::Adyna, mc, sc, w);
    ASSERT_EQ(on.tenants.size(), 1u);
    EXPECT_EQ(on.tenants[0].serve.failedTiles, 1);
    EXPECT_EQ(on.tenants[0].serve.failovers, 1);
    EXPECT_EQ(on.failoverRepairs, 1);

    mc.failover = false;
    const MTenantReport off =
        singleTenantRun(baselines::Design::Adyna, mc, sc, w);
    ASSERT_EQ(off.tenants.size(), 1u);
    EXPECT_EQ(off.tenants[0].serve.failedTiles, 1);
    EXPECT_EQ(off.tenants[0].serve.failovers, 0);
    EXPECT_EQ(off.failoverRepairs, 0);
}

MTenantReport
twoTenantRun(PartitionKind kind, bool elastic, std::uint64_t seed,
             const std::string &faultPlan = "")
{
    static TestWorkload wa("skipnet", 8);
    static TestWorkload wb("pabee", 8);
    const arch::HwConfig hw;

    MTenantConfig mc;
    mc.partition.kind = kind;
    mc.repartition.elastic = elastic;
    if (!faultPlan.empty())
        mc.faultPlan = fault::parseFaultPlanOrDie(faultPlan);

    serve::TenantSpec a;
    a.id = "skipnet-0";
    a.cls = serve::SloClass::LatencyCritical;
    a.serve = smokeServeConfig(seed, 150);
    mc.tenants.push_back(a);

    serve::TenantSpec b;
    b.id = "pabee-1";
    b.cls = serve::SloClass::BestEffort;
    b.serve = smokeServeConfig(seed + 1, 150);
    b.serve.arrival.ratePerSec = 2e5;
    b.serve.slo.deadlineMs = 4.0;
    mc.tenants.push_back(b);

    MTenantRuntime rt(
        {{&wa.dg, wa.tc, "skipnet"}, {&wb.dg, wb.tc, "pabee"}}, hw,
        baselines::schedulerConfig(baselines::Design::Adyna),
        baselines::execPolicy(baselines::Design::Adyna), mc);
    kernels::KernelStoreCache stores;
    rt.setSharedStoreCache(&stores);
    return rt.run();
}

TEST(MTenantRuntime, TwoTenantRunIsDeterministic)
{
    const MTenantReport a =
        twoTenantRun(PartitionKind::IsolationAware, true, 3);
    const MTenantReport b =
        twoTenantRun(PartitionKind::IsolationAware, true, 3);
    EXPECT_EQ(toJson(a), toJson(b));

    ASSERT_EQ(a.tenants.size(), 2u);
    EXPECT_EQ(a.mode, "isolation-aware");
    EXPECT_GT(a.interferenceLinks, 0);
    for (const TenantResult &tr : a.tenants) {
        EXPECT_EQ(tr.serve.requests, 150u);
        EXPECT_GT(tr.serve.p99Ms, 0.0);
        EXPECT_GT(tr.tiles, 0);
        EXPECT_LT(tr.tiles, arch::HwConfig{}.tiles());
    }
    EXPECT_GT(a.aggregateGoodputRps, 0.0);
    EXPECT_GE(a.worstP99Ms, a.tenants[0].serve.p99Ms);
    EXPECT_GE(a.worstP99Ms, a.tenants[1].serve.p99Ms);
}

TEST(MTenantRuntime, SharedGridPaysContextSwitches)
{
    const MTenantReport shared =
        twoTenantRun(PartitionKind::SharedGrid, false, 3);
    const MTenantReport iso =
        twoTenantRun(PartitionKind::IsolationAware, false, 3);
    EXPECT_EQ(shared.mode, "shared-grid");
    // Every tenant schedules over the whole grid, so alternating
    // dispatches keep re-streaming weights; pinned disjoint regions
    // never pay one (elastic repartitioning is off).
    EXPECT_GT(shared.tenantSwitches, 0);
    EXPECT_EQ(iso.tenantSwitches, 0);
    EXPECT_EQ(shared.interferenceLinks, 0);
}

TEST(MTenantRuntime, FrozenPartitionNeverRepartitions)
{
    const MTenantReport r =
        twoTenantRun(PartitionKind::EvenSplit, true, 5);
    // EvenSplit is always frozen, elastic flag or not.
    EXPECT_EQ(r.mode, "even-split");
    EXPECT_EQ(r.repartitions, 0);
}

TEST(MTenantRuntime, FaultInOneRegionRepairsOnlyStruckTenants)
{
    // Strike tile 0 (top-left corner: inside exactly one region)
    // mid-run, recover it later. Only the tenant owning that corner
    // may be rebuilt.
    const MTenantReport r = twoTenantRun(
        PartitionKind::IsolationAware, false, 11,
        "tile_fail@2000000:tile=0,duration=3000000");
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_GT(r.failoverRepairs, 0);
    const int failovers0 = r.tenants[0].serve.failovers;
    const int failovers1 = r.tenants[1].serve.failovers;
    // Tile 0 lives in exactly one rectangle, so exactly one tenant
    // sees fail-over repairs.
    EXPECT_TRUE((failovers0 > 0) != (failovers1 > 0))
        << "failovers: " << failovers0 << " / " << failovers1;
    EXPECT_EQ(r.failoverRepairs, failovers0 + failovers1);
}

TEST(MTenantRuntime, SearchOnDriftSearchesTenantReschedules)
{
    // searchOnDrift applies to every tenant's drift re-schedules, not
    // only to the single-tenant runtime's.
    static TestWorkload w("skipnet", 8, 0.9);
    MTenantConfig mc;
    mc.repartition.elastic = false;
    for (int i = 0; i < 2; ++i) {
        serve::TenantSpec ts;
        ts.id = "skipnet-" + std::to_string(i);
        ts.serve = smokeServeConfig(11 + i, 2400);
        ts.serve.drift.windowRequests = 32;
        ts.serve.searchOnDrift = true;
        ts.serve.search.chains = 2;
        ts.serve.search.mutationBudget = 200;
        ts.serve.search.materializeTop = 2;
        mc.tenants.push_back(ts);
    }
    MTenantRuntime rt(
        {{&w.dg, w.tc, "skipnet"}, {&w.dg, w.tc, "skipnet"}},
        arch::HwConfig{},
        baselines::schedulerConfig(baselines::Design::Adyna),
        baselines::execPolicy(baselines::Design::Adyna), mc);
    kernels::KernelStoreCache stores;
    rt.setSharedStoreCache(&stores);
    const MTenantReport r = rt.run();

    int reschedules = 0;
    for (const TenantResult &t : r.tenants) {
        EXPECT_TRUE(t.serve.searchActive);
        reschedules += t.serve.reschedules;
        if (t.serve.reschedules > 0) {
            EXPECT_GT(t.serve.search.candidatesTried, 0u) << t.id;
        }
    }
    ASSERT_GT(reschedules, 0) << "drift must trigger";
    EXPECT_NE(toJson(r).find("search_tried"), std::string::npos);
}

/** Tenant ids are validated only for being non-empty and unique, so
 * the emitter must escape them and size its output to fit: a quote,
 * a backslash and a 4000-character id each leave a report that
 * parses, with the tenant's class and tiles intact. */
TEST(MTenantJson, EscapesTenantIdsAndKeepsEveryField)
{
    MTenantReport r;
    r.mode = "isolation";
    const std::string longId(4000, 't');
    const std::pair<std::string, std::string> ids[] = {
        {"team \"a\"", "team \\\"a\\\""},
        {"ns\\b", "ns\\\\b"},
        {longId, longId}};
    for (const auto &[id, escaped] : ids) {
        TenantResult t;
        t.id = id;
        t.cls = serve::SloClass::BestEffort;
        t.tiles = 7;
        t.serve.workload = "skipnet";
        r.tenants.push_back(t);
    }
    const std::string json = toJson(r);
    EXPECT_TRUE(test::isValidJson(json)) << json.substr(0, 80);
    for (const auto &[id, escaped] : ids)
        EXPECT_NE(json.find("{\"tenant\": \"" + escaped +
                            "\", \"slo_class\": \"best-effort\", "
                            "\"tiles\": 7, \"workload\": \"skipnet\""),
                  std::string::npos)
            << id.substr(0, 16);
    EXPECT_TRUE(json.ends_with("}]}"));
}

} // namespace
