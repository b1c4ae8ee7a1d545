/**
 * @file
 * Unit tests for the architecture substrate: torus NoC routing and
 * contention, HBM channel mapping and gap-filling, chip occupancy
 * accounting, and the hardware profiler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/chip.hh"
#include "arch/hbm.hh"
#include "arch/hwconfig.hh"
#include "arch/noc.hh"
#include "arch/profiler.hh"
#include "common/rng.hh"

namespace {

using namespace adyna;
using namespace adyna::arch;

HwConfig
cfg()
{
    return HwConfig{};
}

// ------------------------------------------------------------ HwConfig

TEST(HwConfig, TableIIIDefaults)
{
    const HwConfig hw = cfg();
    EXPECT_EQ(hw.tiles(), 144);
    // 144 tiles x 1024 MACs x 2 flops at 1 GHz ~ 295 TFLOPS.
    EXPECT_NEAR(hw.peakTflops(), 294.9, 0.5);
    EXPECT_EQ(hw.totalSpad(), Bytes{72} << 20);
    EXPECT_EQ(hw.hbmStacks, 6);
}

TEST(HwConfig, SnakeOrderVisitsAllTilesWithAdjacency)
{
    const HwConfig hw = cfg();
    const auto order = snakeTileOrder(hw);
    ASSERT_EQ(order.size(), 144u);
    std::vector<bool> seen(144, false);
    for (TileId t : order) {
        ASSERT_LT(t, 144u);
        EXPECT_FALSE(seen[t]);
        seen[t] = true;
    }
    // Consecutive entries are grid neighbours.
    for (std::size_t i = 1; i < order.size(); ++i) {
        const int dr = std::abs(hw.tileRow(order[i]) -
                                hw.tileRow(order[i - 1]));
        const int dc = std::abs(hw.tileCol(order[i]) -
                                hw.tileCol(order[i - 1]));
        EXPECT_EQ(dr + dc, 1);
    }
}

// ----------------------------------------------------------------- Noc

TEST(Noc, HopsUseTorusShortcuts)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    // Tile 0 (0,0) to tile 11 (0,11): one hop around the torus.
    EXPECT_EQ(noc.hops(0, 11), 1);
    // (0,0) to (0,6): six hops either way.
    EXPECT_EQ(noc.hops(0, 6), 6);
    // (0,0) to (11,11): 1 + 1 wrap hops.
    EXPECT_EQ(noc.hops(0, 143), 2);
    EXPECT_EQ(noc.hops(5, 5), 0);
}

TEST(Noc, TransferTimeScalesWithBytesAndHops)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    const auto t = noc.transfer(0, 0, 1, 1920); // 1 hop east
    EXPECT_EQ(t.hops, 1);
    // 1920 B at 192 B/cycle = 10 cycles + 1 hop x 2 cycles.
    EXPECT_EQ(t.end, 12u);
    EXPECT_EQ(t.byteHops, 1920u);
}

TEST(Noc, SelfTransferIsFree)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    const auto t = noc.transfer(100, 7, 7, 1 << 20);
    EXPECT_EQ(t.end, 100u);
    EXPECT_EQ(t.byteHops, 0u);
}

TEST(Noc, SharedLinkContends)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    const auto a = noc.transfer(0, 0, 2, 19200); // crosses link 0->1
    const auto b = noc.transfer(0, 0, 1, 19200); // same first link
    EXPECT_GE(b.end, a.start + 100); // queued behind a on link 0-E
}

TEST(Noc, ProbeAckIsRoundTrip)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    EXPECT_EQ(noc.probeAck(0, 0, 6), Tick{2} * 6 * hw.nocHopLatency);
}

// ----------------------------------------------------------------- Hbm

TEST(Hbm, ChannelsCoverColumnBands)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    EXPECT_EQ(hbm.channelOf(0), 0);   // col 0
    EXPECT_EQ(hbm.channelOf(11), 5);  // col 11
    EXPECT_EQ(hbm.channelOf(6), 3);   // col 6
}

TEST(Hbm, AccessAddsLatencyAndBandwidthTime)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    // 307 B/cycle per channel: 3070 B = 10 cycles + 120 latency.
    const auto a = hbm.access(0, 0, 3070);
    EXPECT_EQ(a.end, 10u + hw.hbmLatency);
    EXPECT_EQ(hbm.bytesServed(), 3070u);
}

TEST(Hbm, GapFillingAvoidsHeadOfLineBlocking)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    // A late-issued reservation far in the future...
    (void)hbm.access(1000000, 0, 3070);
    // ...must not delay an earlier-time request issued afterwards.
    const auto early = hbm.access(0, 0, 3070);
    EXPECT_LT(early.end, 1000u);
}

TEST(Hbm, DistinctChannelsDoNotContend)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    const auto a = hbm.access(0, 0, 1 << 20);  // channel 0
    const auto b = hbm.access(0, 11, 1 << 20); // channel 5
    EXPECT_EQ(a.start, b.start);
}

// ---------------------------------------------------------------- Chip

TEST(Chip, OccupyTilesSerializesPerTile)
{
    Chip chip(cfg());
    const auto a = chip.occupyTiles(0, {0, 1}, 100);
    EXPECT_EQ(a.start, 0u);
    const auto b = chip.occupyTiles(0, {1, 2}, 50); // overlaps tile 1
    EXPECT_EQ(b.start, 100u);
    const auto c = chip.occupyTiles(0, {5}, 10); // disjoint
    EXPECT_EQ(c.start, 0u);
    EXPECT_EQ(chip.tilesFreeAt({0}), 100u);
    EXPECT_EQ(chip.tilesFreeAt({1}), 150u);
    EXPECT_EQ(chip.allTilesFreeAt(), 150u);
    EXPECT_EQ(chip.busyTileCycles(), 100u * 2 + 50 * 2 + 10);
}

TEST(Chip, UtilizationAndEnergyAccounting)
{
    Chip chip(cfg());
    // Full-chip peak for 100 cycles.
    chip.recordMacs(static_cast<MacCount>(144) * 1024 * 100,
                    static_cast<MacCount>(144) * 1024 * 50);
    EXPECT_DOUBLE_EQ(chip.peUtilization(100), 1.0);
    EXPECT_DOUBLE_EQ(chip.peUtilization(200), 0.5);

    chip.chargeHbmEnergy(1000);
    chip.chargeNocEnergy(1000);
    chip.chargePeEnergy(42.0);
    chip.chargeSramEnergy(7.0);
    EXPECT_NEAR(chip.energy().hbm, 31.2 * 1000, 1e-6);
    EXPECT_NEAR(chip.energy().noc, 0.8 * 1000, 1e-6);
    EXPECT_NEAR(chip.energy().pe, 42.0, 1e-6);
    EXPECT_NEAR(chip.energy().sram, 7.0, 1e-6);
    EXPECT_GT(chip.energy().total(), 31000.0);

    chip.reset();
    EXPECT_EQ(chip.issuedMacs(), 0u);
    EXPECT_EQ(chip.energy().total(), 0.0);
}

// ------------------------------------------------------------ Profiler

TEST(Profiler, FrequencyTablesAccumulateAndReset)
{
    Profiler prof;
    prof.recordValue(3, 10);
    prof.recordValue(3, 10);
    prof.recordValue(3, 20);
    EXPECT_EQ(prof.table(3).total(), 3u);
    EXPECT_EQ(prof.table(3).count(10), 2u);
    EXPECT_NEAR(prof.table(3).expectation(), 40.0 / 3.0, 1e-9);
    EXPECT_TRUE(prof.table(99).empty());
    ASSERT_EQ(prof.trackedOps().size(), 1u);

    prof.resetTables();
    EXPECT_TRUE(prof.table(3).empty());
}

TEST(Profiler, BranchActivityAndCovariance)
{
    Profiler prof;
    // Two perfectly anti-correlated branches and one dead branch.
    for (int i = 0; i < 10; ++i) {
        const std::int64_t a = i % 2 == 0 ? 10 : 2;
        const std::int64_t b = i % 2 == 0 ? 2 : 10;
        prof.recordBranchLoads(7, {a, b, 0});
    }
    EXPECT_LT(prof.branchCovariance(7, 0, 1), 0.0);
    EXPECT_GT(prof.branchCovariance(7, 0, 0), 0.0);
    EXPECT_DOUBLE_EQ(prof.branchActivity(7, 0), 1.0);
    EXPECT_DOUBLE_EQ(prof.branchActivity(7, 2), 0.0);
    // Unknown switch: no history, assume active.
    EXPECT_DOUBLE_EQ(prof.branchActivity(8, 0), 1.0);
    EXPECT_DOUBLE_EQ(prof.branchCovariance(8, 0, 1), 0.0);
}

TEST(Profiler, HistoryIsBounded)
{
    Profiler prof(4);
    for (int i = 0; i < 10; ++i)
        prof.recordBranchLoads(1, {i, i});
    EXPECT_EQ(prof.branchHistory(1).size(), 4u);
    EXPECT_EQ(prof.branchHistory(1).back()[0], 9);
}

TEST(Profiler, WindowBatchesCountResetsWithTables)
{
    Profiler prof;
    EXPECT_EQ(prof.windowBatches(), 0u);
    for (int i = 0; i < 5; ++i) {
        prof.recordValue(1, i);
        prof.noteBatch();
    }
    EXPECT_EQ(prof.windowBatches(), 5u);
    prof.resetTables();
    EXPECT_EQ(prof.windowBatches(), 0u);
    EXPECT_TRUE(prof.table(1).empty());
    prof.noteBatch();
    prof.reset();
    EXPECT_EQ(prof.windowBatches(), 0u);
}

TEST(Profiler, SnapshotIsDeepCopy)
{
    Profiler prof;
    prof.recordValue(2, 10);
    const auto snap = prof.tablesSnapshot();
    prof.recordValue(2, 99);
    prof.recordValue(5, 1);
    EXPECT_EQ(snap.at(2).total(), 1u);
    EXPECT_TRUE(snap.size() <= 5 || snap[5].empty());
}

TEST(Profiler, DriftL1ZeroOnSelfAndDisjointOps)
{
    Profiler prof;
    for (int i = 0; i < 100; ++i)
        prof.recordValue(1, i % 7);
    EXPECT_DOUBLE_EQ(prof.driftL1(prof.tablesSnapshot()), 0.0);

    // Nothing comparable: reference tracks a different op.
    Profiler other;
    other.recordValue(42, 3);
    EXPECT_DOUBLE_EQ(prof.driftL1(other.tablesSnapshot()), 0.0);
}

TEST(Profiler, DriftL1TakesWorstOpNotTheMean)
{
    // Op 1 is stationary, op 2 shifts completely: a mean over ops
    // would halve the signal, the max must keep it at 2 (disjoint
    // supports under normalized L1).
    Profiler ref, cur;
    for (int i = 0; i < 200; ++i) {
        ref.recordValue(1, i % 4);
        cur.recordValue(1, i % 4);
        ref.recordValue(2, 0);
        cur.recordValue(2, 1000);
    }
    const double d = cur.driftL1(ref.tablesSnapshot());
    EXPECT_NEAR(d, 2.0, 1e-9);
}

} // namespace

namespace {

TEST(NocMulticast, SharedPrefixLinksReservedOnce)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    // Tile 0 to tiles 2 and 3 (same row): paths share links 0->1->2.
    const auto m = noc.multicast(0, 0, {2, 3}, 1920);
    // Unique links: 0-E, 1-E, 2-E = 3 links x 1920 bytes.
    EXPECT_EQ(m.byteHops, 3u * 1920u);
    EXPECT_EQ(m.hops, 3);
    // Versus two unicasts: 2 + 3 = 5 link reservations.
    Noc noc2(hw);
    const auto a = noc2.transfer(0, 0, 2, 1920);
    const auto b = noc2.transfer(0, 0, 3, 1920);
    EXPECT_EQ(a.byteHops + b.byteHops, 5u * 1920u);
    // The multicast also finishes no later than the serialized
    // unicasts on the shared first link.
    EXPECT_LE(m.end, std::max(a.end, b.end));
}

TEST(NocMulticast, SelfAndEmptyDestinations)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    EXPECT_EQ(noc.multicast(5, 0, {}, 100).end, 5u);
    EXPECT_EQ(noc.multicast(5, 0, {0}, 100).end, 5u);
    EXPECT_EQ(noc.byteHopsServed(), 0u);
}

/** The grids the NoC route tests sweep. */
struct TestGrid
{
    int rows;
    int cols;
};
constexpr TestGrid kTestGrids[] = {
    {12, 12}, // Table III grid
    {5, 7},   // odd: no n/2 tie
    {4, 6},   // ties at n/2 go +1
    {1, 8},   // one row
    {8, 1},   // one column
};

HwConfig
gridCfg(const TestGrid &g)
{
    HwConfig hw = cfg();
    hw.gridRows = g.rows;
    hw.gridCols = g.cols;
    return hw;
}

/**
 * Drive the same random multicast stream through a fault-free Noc
 * (X-Y tree extents) and one with an inert probe-drop window, which
 * routes every multicast through route() plus sort/unique without
 * changing any route or grant. Every transfer and the final link
 * accounting must agree.
 */
void
expectMulticastMatchesRoutedUnion(const TestGrid &g, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << g.rows << "x" << g.cols);
    const HwConfig hw = gridCfg(g);
    Noc tree(hw), routed(hw);
    routed.setProbeDropWindow(0.5, 0, seed);
    Rng rng(seed);
    const std::int64_t tiles = hw.tiles();
    std::vector<TileId> dsts;
    for (int call = 0; call < 400; ++call) {
        const auto src = static_cast<TileId>(rng.uniformInt(0, tiles - 1));
        dsts.clear();
        const auto n = rng.uniformInt(1, 2 * tiles);
        for (std::int64_t i = 0; i < n; ++i) {
            // Duplicates come from the draw; the source joins often.
            dsts.push_back(rng.bernoulli(0.1)
                               ? src
                               : static_cast<TileId>(
                                     rng.uniformInt(0, tiles - 1)));
        }
        const auto earliest = static_cast<Tick>(rng.uniformInt(0, 20000));
        const auto bytes = static_cast<Bytes>(rng.uniformInt(1, 8192));
        const auto a = tree.multicast(earliest, src, dsts, bytes);
        const auto b = routed.multicast(earliest, src, dsts, bytes);
        ASSERT_EQ(a.start, b.start) << "#" << call;
        ASSERT_EQ(a.end, b.end) << "#" << call;
        ASSERT_EQ(a.hops, b.hops) << "#" << call;
        ASSERT_EQ(a.byteHops, b.byteHops) << "#" << call;
    }
    EXPECT_EQ(tree.byteHopsServed(), routed.byteHopsServed());
    EXPECT_EQ(tree.linkBusyTicks(), routed.linkBusyTicks());
}

TEST(NocMulticast, TreeExtentsMatchRoutedUnion)
{
    std::uint64_t seed = 1;
    for (const TestGrid &g : kTestGrids)
        expectMulticastMatchesRoutedUnion(g, seed++);
}

/** Signed shortest torus step direction from a to b over size n, as
 * the NoC's per-hop loops computed it before it tabulated routes:
 * +1 = increasing index, -1 = decreasing, 0 = equal. */
int
refTorusDir(int a, int b, int n)
{
    if (a == b)
        return 0;
    const int fwd = (b - a + n) % n;  // steps in + direction
    const int back = (a - b + n) % n; // steps in - direction
    return fwd <= back ? +1 : -1;
}

/** Reference dimension-order route: per hop, the shortest direction
 * by modular distance and a modular wrap, columns first unless
 * @p rowsFirst. Link index = tile x 4 + direction. */
std::vector<std::size_t>
refPath(const HwConfig &hw, TileId src, TileId dst, bool rowsFirst)
{
    std::vector<std::size_t> out;
    int row = hw.tileRow(src);
    int col = hw.tileCol(src);
    const int dstRow = hw.tileRow(dst);
    const int dstCol = hw.tileCol(dst);
    const auto take = [&](int dir) {
        out.push_back(
            static_cast<std::size_t>(row * hw.gridCols + col) * 4 +
            static_cast<std::size_t>(dir));
    };
    const auto walkCols = [&] {
        while (col != dstCol) {
            const int dir = refTorusDir(col, dstCol, hw.gridCols);
            take(dir > 0 ? kLinkEast : kLinkWest);
            col = (col + dir + hw.gridCols) % hw.gridCols;
        }
    };
    const auto walkRows = [&] {
        while (row != dstRow) {
            const int dir = refTorusDir(row, dstRow, hw.gridRows);
            take(dir > 0 ? kLinkSouth : kLinkNorth);
            row = (row + dir + hw.gridRows) % hw.gridRows;
        }
    };
    if (rowsFirst) {
        walkRows();
        walkCols();
    } else {
        walkCols();
        walkRows();
    }
    return out;
}

TEST(Noc, RoutesMatchReferenceWalk)
{
    for (const TestGrid &g : kTestGrids) {
        SCOPED_TRACE(testing::Message() << g.rows << "x" << g.cols);
        const HwConfig hw = gridCfg(g);
        Noc noc(hw);
        const auto tiles = static_cast<TileId>(hw.tiles());
        for (TileId src = 0; src < tiles; ++src) {
            for (TileId dst = 0; dst < tiles; ++dst) {
                const auto xy = refPath(hw, src, dst, false);
                ASSERT_EQ(noc.route(src, dst), xy) << src << "->" << dst;
                ASSERT_EQ(noc.hops(src, dst), static_cast<int>(xy.size()))
                    << src << "->" << dst;
                if (xy.empty())
                    continue;
                // With the X-Y route's first link dead, the Y-X route
                // is the detour whenever it avoids that link.
                const auto dead = xy.front();
                const auto yx = refPath(hw, src, dst, true);
                if (std::find(yx.begin(), yx.end(), dead) != yx.end())
                    continue;
                noc.setLinkDown(static_cast<TileId>(dead / 4),
                                static_cast<int>(dead % 4), true);
                ASSERT_EQ(noc.route(src, dst), yx) << src << "->" << dst;
                noc.setLinkDown(static_cast<TileId>(dead / 4),
                                static_cast<int>(dead % 4), false);
            }
        }
    }
}

/**
 * Drive the same random unicast stream through a fault-free Noc (the
 * walker reserves as it goes) and one with an inert probe-drop
 * window, which sends every transfer through route() without changing
 * any route or grant. Every transfer and the final link accounting
 * must agree.
 */
void
expectTransferMatchesRoutedPath(const TestGrid &g, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << g.rows << "x" << g.cols);
    const HwConfig hw = gridCfg(g);
    Noc walked(hw), routed(hw);
    routed.setProbeDropWindow(0.5, 0, seed);
    Rng rng(seed);
    const std::int64_t tiles = hw.tiles();
    for (int call = 0; call < 400; ++call) {
        const auto src = static_cast<TileId>(rng.uniformInt(0, tiles - 1));
        const auto dst = static_cast<TileId>(rng.uniformInt(0, tiles - 1));
        const auto earliest = static_cast<Tick>(rng.uniformInt(0, 20000));
        const auto bytes = static_cast<Bytes>(rng.uniformInt(1, 8192));
        const auto a = walked.transfer(earliest, src, dst, bytes);
        const auto b = routed.transfer(earliest, src, dst, bytes);
        ASSERT_EQ(a.start, b.start) << "#" << call;
        ASSERT_EQ(a.end, b.end) << "#" << call;
        ASSERT_EQ(a.hops, b.hops) << "#" << call;
        ASSERT_EQ(a.byteHops, b.byteHops) << "#" << call;
    }
    EXPECT_EQ(walked.byteHopsServed(), routed.byteHopsServed());
    EXPECT_EQ(walked.linkBusyTicks(), routed.linkBusyTicks());
}

TEST(Noc, TransferMatchesRoutedPath)
{
    std::uint64_t seed = 1;
    for (const TestGrid &g : kTestGrids)
        expectTransferMatchesRoutedPath(g, seed++);
}

TEST(NocMulticast, MatchesUnicastForSingleDestination)
{
    const HwConfig hw = cfg();
    Noc a(hw), b(hw);
    const auto mu = a.multicast(0, 0, {14}, 4096);
    const auto un = b.transfer(0, 0, 14, 4096);
    EXPECT_EQ(mu.end, un.end);
    EXPECT_EQ(mu.byteHops, un.byteHops);
}

} // namespace
