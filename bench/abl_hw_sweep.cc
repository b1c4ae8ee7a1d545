/**
 * @file
 * Extension: hardware design-space sensitivity. Sweeps the Table III
 * configuration along three axes -- tile-grid size, per-tile
 * scratchpad capacity, and NoC link bandwidth -- and reports Adyna's
 * speedup over M-tile at each point. Shows which of the paper's
 * conclusions are robust to the hardware baseline: the dynamism-
 * aware advantage persists across chip sizes, grows when on-chip
 * capacity is scarce (more segments to balance), and is insensitive
 * to NoC bandwidth beyond a modest floor.
 */

#include <deque>

#include "bench_common.hh"

using namespace adyna;
using namespace adyna::bench;
using baselines::Design;

namespace {

/**
 * Geomean Adyna-vs-M-tile speedup for each hardware point, all
 * (point, workload) runs in parallel. Each point gets its OWN shared
 * mapper: the memo key does not include TechParams, so a cache must
 * never span differing hardware configurations.
 */
std::vector<double>
speedupsAt(const std::vector<arch::HwConfig> &hws,
           const BenchParams &p,
           const std::vector<std::string> &names, ThreadPool &pool)
{
    std::deque<costmodel::Mapper> mappers; // deque: Mapper is pinned
    for (const arch::HwConfig &hw : hws)
        mappers.emplace_back(hw.tech);

    const auto speeds =
        pool.parallelMap(hws.size() * names.size(), [&](std::size_t i) {
            const std::size_t ci = i / names.size();
            const arch::HwConfig &hw = hws[ci];
            costmodel::Mapper *sm = &mappers[ci];
            const Workload w =
                makeWorkload(names[i % names.size()], p.batchSize);
            const double mtile =
                runDesign(w, Design::MTile, p, hw, sm).timeMs;
            const double adyna =
                runDesign(w, Design::Adyna, p, hw, sm).timeMs;
            return mtile / adyna;
        });

    std::vector<double> out;
    for (std::size_t ci = 0; ci < hws.size(); ++ci)
        out.push_back(geomean(std::vector<double>(
            speeds.begin() +
                static_cast<std::ptrdiff_t>(ci * names.size()),
            speeds.begin() +
                static_cast<std::ptrdiff_t>((ci + 1) *
                                            names.size()))));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    if (!args.has("batches"))
        p.batches = 100;
    const arch::HwConfig base;
    printBanner("=== Extension: hardware design-space sweep ===", base,
                p);
    const std::vector<std::string> names{"skipnet", "tutel-moe",
                                         "dpsnet"};
    ThreadPool pool(p.jobs);

    TextTable grid("Tile grid sweep (per-tile resources fixed)");
    grid.header({"grid", "tiles", "peak TFLOPS",
                 "Adyna vs M-tile (geomean)"});
    const std::vector<int> edges{6, 8, 12, 16};
    std::vector<arch::HwConfig> gridHws;
    for (int edge : edges) {
        arch::HwConfig hw = base;
        hw.gridRows = edge;
        hw.gridCols = edge;
        gridHws.push_back(hw);
    }
    const auto gridSpeeds = speedupsAt(gridHws, p, names, pool);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const int edge = edges[i];
        grid.row({std::to_string(edge) + "x" + std::to_string(edge),
                  std::to_string(gridHws[i].tiles()),
                  TextTable::num(gridHws[i].peakTflops(), 0),
                  TextTable::mult(gridSpeeds[i])});
    }
    grid.print(std::cout);
    std::printf("\n");

    TextTable spad("Scratchpad capacity sweep (12x12 grid)");
    spad.header({"spad/tile", "total on-chip",
                 "Adyna vs M-tile (geomean)"});
    const std::vector<int> kbs{128, 256, 512, 1024};
    std::vector<arch::HwConfig> spadHws;
    for (int kb : kbs) {
        arch::HwConfig hw = base;
        hw.tech.spadBytes = static_cast<Bytes>(kb) << 10;
        spadHws.push_back(hw);
    }
    const auto spadSpeeds = speedupsAt(spadHws, p, names, pool);
    for (std::size_t i = 0; i < kbs.size(); ++i)
        spad.row({std::to_string(kbs[i]) + " kB",
                  std::to_string(kbs[i] * 144 / 1024) + " MB",
                  TextTable::mult(spadSpeeds[i])});
    spad.print(std::cout);
    std::printf("\n");

    TextTable noc("NoC link bandwidth sweep (12x12 grid)");
    noc.header({"GB/s per link", "Adyna vs M-tile (geomean)"});
    const std::vector<double> bws{48.0, 96.0, 192.0, 384.0};
    std::vector<arch::HwConfig> nocHws;
    for (double bw : bws) {
        arch::HwConfig hw = base;
        hw.nocLinkBytesPerCycle = bw;
        nocHws.push_back(hw);
    }
    const auto nocSpeeds = speedupsAt(nocHws, p, names, pool);
    for (std::size_t i = 0; i < bws.size(); ++i)
        noc.row({TextTable::num(bws[i], 0),
                 TextTable::mult(nocSpeeds[i])});
    noc.print(std::cout);
    return 0;
}
