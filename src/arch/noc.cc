#include "arch/noc.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>

#include "common/logging.hh"

namespace adyna::arch {

namespace {

/** Signed shortest step counts around a ring of @p n nodes: entry
 * a * n + b counts the steps from a to b, positive toward increasing
 * index. At half the ring both ways are equally short; the tie goes
 * to +1. */
std::vector<int>
ringSteps(int n)
{
    std::vector<int> steps;
    steps.reserve(static_cast<std::size_t>(n) * n);
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
            const int fwd = (b - a + n) % n;
            steps.push_back(fwd <= n - fwd ? fwd : fwd - n);
        }
    }
    return steps;
}

} // namespace

Noc::Noc(const HwConfig &cfg)
    : cfg_(cfg), colSteps_(ringSteps(cfg.gridCols)),
      rowSteps_(ringSteps(cfg.gridRows))
{
    const auto tiles = static_cast<TileId>(cfg_.tiles());
    const auto n = static_cast<std::size_t>(tiles) * 4;
    links_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        links_.emplace_back(cfg_.nocLinkBytesPerCycle);
    linkDown_.assign(n, 0);
    linkFactor_.assign(n, 1.0);
    southExtent_.assign(static_cast<std::size_t>(cfg_.gridCols), 0);
    northExtent_.assign(static_cast<std::size_t>(cfg_.gridCols), 0);
    tilePos_.reserve(tiles);
    linkTargets_.reserve(n);
    for (TileId tile = 0; tile < tiles; ++tile) {
        tilePos_.push_back({cfg_.tileRow(tile), cfg_.tileCol(tile)});
        for (int dir = 0; dir < 4; ++dir)
            linkTargets_.push_back(torusNeighbor(cfg_, tile, dir));
    }
}

std::size_t
Noc::linkIndex(TileId tile, int dir) const
{
    return static_cast<std::size_t>(tile) * 4 +
           static_cast<std::size_t>(dir);
}

TileId
torusNeighbor(const HwConfig &cfg, TileId tile, int dir)
{
    int row = cfg.tileRow(tile);
    int col = cfg.tileCol(tile);
    switch (dir) {
      case kLinkEast:
        col = (col + 1) % cfg.gridCols;
        break;
      case kLinkWest:
        col = (col + cfg.gridCols - 1) % cfg.gridCols;
        break;
      case kLinkSouth:
        row = (row + 1) % cfg.gridRows;
        break;
      default:
        row = (row + cfg.gridRows - 1) % cfg.gridRows;
        break;
    }
    return static_cast<TileId>(row * cfg.gridCols + col);
}

Noc::Steps
Noc::steps(TileId src, TileId dst) const
{
    const TilePos from = tilePos_[src];
    const TilePos to = tilePos_[dst];
    return {colSteps_[static_cast<std::size_t>(from.col * cfg_.gridCols +
                                               to.col)],
            rowSteps_[static_cast<std::size_t>(from.row * cfg_.gridRows +
                                               to.row)]};
}

template <typename Visit>
TileId
Noc::straight(TileId at, int dir, int n, Visit &visit) const
{
    for (; n > 0; --n) {
        const std::size_t link = linkIndex(at, dir);
        visit(link);
        at = linkTargets_[link];
    }
    return at;
}

template <typename Visit>
void
Noc::walk(TileId src, TileId dst, DimOrder order, Visit &&visit) const
{
    // X-Y (columns first) is deadlock-free on the torus with the usual
    // dateline virtual channels abstracted away; Y-X is the fallback
    // order around a dead link.
    const Steps s = steps(src, dst);
    const int xDir = s.x > 0 ? kLinkEast : kLinkWest;
    const int yDir = s.y > 0 ? kLinkSouth : kLinkNorth;
    TileId at = src;
    if (order == DimOrder::XY) {
        at = straight(at, xDir, std::abs(s.x), visit);
        at = straight(at, yDir, std::abs(s.y), visit);
    } else {
        at = straight(at, yDir, std::abs(s.y), visit);
        at = straight(at, xDir, std::abs(s.x), visit);
    }
#ifdef ADYNA_SANITIZE
    ADYNA_ASSERT(at == dst, "walk from ", src, " ends at ", at,
                 " instead of ", dst);
#endif
}

std::vector<std::size_t>
Noc::path(TileId src, TileId dst, DimOrder order) const
{
    std::vector<std::size_t> out;
    walk(src, dst, order, [&](std::size_t link) { out.push_back(link); });
    return out;
}

int
Noc::hops(TileId src, TileId dst) const
{
    const Steps s = steps(src, dst);
    return std::abs(s.x) + std::abs(s.y);
}

bool
Noc::routeHealthy(const std::vector<std::size_t> &route) const
{
    for (std::size_t link : route)
        if (linkDown_[link])
            return false;
    return true;
}

std::vector<std::size_t>
Noc::bfsPath(TileId src, TileId dst) const
{
    // Deterministic BFS over healthy directed links, expanding the
    // four directions in fixed E/W/S/N order, so the detour a given
    // fault set produces is always the same.
    const auto tiles = static_cast<std::size_t>(cfg_.tiles());
    std::vector<std::size_t> viaLink(tiles, ~std::size_t{0});
    std::vector<char> seen(tiles, 0);
    std::deque<TileId> frontier{src};
    seen[src] = 1;
    while (!frontier.empty() && !seen[dst]) {
        const TileId here = frontier.front();
        frontier.pop_front();
        for (int dir = 0; dir < 4; ++dir) {
            const std::size_t link = linkIndex(here, dir);
            if (linkDown_[link])
                continue;
            const TileId next = linkTargets_[link];
            if (seen[next])
                continue;
            seen[next] = 1;
            viaLink[next] = link;
            frontier.push_back(next);
        }
    }
    if (!seen[dst])
        return {};
    std::vector<std::size_t> out;
    for (TileId at = dst; at != src;) {
        const std::size_t link = viaLink[at];
        out.push_back(link);
        at = static_cast<TileId>(link / 4);
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::vector<std::size_t>
Noc::route(TileId src, TileId dst, RouteKind *kind) const
{
    RouteKind unused;
    RouteKind &found = kind ? *kind : unused;
    found = RouteKind::XY;
    std::vector<std::size_t> xy = path(src, dst, DimOrder::XY);
    if (downLinks_ == 0 || routeHealthy(xy))
        return xy;
    // Y-X fallback: the cheap dimension-order alternative most
    // single-link faults are routed around with.
    found = RouteKind::Detour;
    std::vector<std::size_t> yx = path(src, dst, DimOrder::YX);
    if (routeHealthy(yx))
        return yx;
    std::vector<std::size_t> detour = bfsPath(src, dst);
    if (!detour.empty())
        return detour;
    // The fault set disconnects the pair; the caller still makes
    // forward progress on the nominal path (a real chip would have
    // been taken offline before this point).
    found = RouteKind::Unroutable;
    return xy;
}

std::vector<std::size_t>
Noc::routeMessage(TileId src, TileId dst)
{
    RouteKind kind;
    std::vector<std::size_t> rt = route(src, dst, &kind);
    detourRoutes_ += kind == RouteKind::Detour ? 1 : 0;
    unroutablePaths_ += kind == RouteKind::Unroutable ? 1 : 0;
    return rt;
}

Tick
Noc::serviceTime(Bytes bytes) const
{
    return links_.front().serviceTime(bytes); // one rate for all links
}

Reservation
Noc::acquireLink(std::size_t link, Tick earliest, Bytes bytes, Tick dur)
{
    if (anyLinkFault_ && linkFactor_[link] < 1.0) {
        // A degraded link moves the same payload at factor x the
        // bandwidth: stretch the reservation by 1/factor.
        const auto effective = static_cast<Bytes>(std::ceil(
            static_cast<double>(bytes) / linkFactor_[link]));
        return links_[link].acquire(earliest, effective);
    }
    return links_[link].acquire(earliest, bytes, dur);
}

NocTransfer
Noc::transfer(Tick earliest, TileId src, TileId dst, Bytes bytes)
{
    NocTransfer t;
    t.start = earliest;
    t.end = earliest;
    if (src == dst || bytes == 0)
        return t;
    Tick latest = earliest;
    const Tick dur = serviceTime(bytes);
    const auto reserve = [&](std::size_t link) {
        latest =
            std::max(latest, acquireLink(link, earliest, bytes, dur).end);
        ++t.hops;
    };
    if (anyLinkFault_) {
        const auto rt = routeMessage(src, dst);
#ifdef ADYNA_SANITIZE
        validateRoute(rt, src, dst);
#endif
        for (std::size_t link : rt)
            reserve(link);
    } else {
        // Fault-free fast path: reserve each link as the walker visits
        // it, in path()'s order, with no route vector materialized.
        walk(src, dst, DimOrder::XY, reserve);
    }
    t.end = latest + static_cast<Tick>(t.hops) * cfg_.nocHopLatency;
    t.byteHops = bytes * static_cast<Bytes>(t.hops);
    byteHops_ += t.byteHops;
    return t;
}

NocTransfer
Noc::multicast(Tick earliest, TileId src,
               const std::vector<TileId> &dsts, Bytes bytes)
{
    NocTransfer t;
    t.start = earliest;
    t.end = earliest;
    if (bytes == 0 || dsts.empty())
        return t;

    // Each link of the union of the per-destination paths carries the
    // payload once (replication happens at branch points). Every link
    // is its own resource and the finish time is a max over links, so
    // the order the union is reserved in changes no grant.
    Tick latest = earliest;
    int maxHops = 0;
    std::size_t unionLinks = 0;
    const Tick dur = serviceTime(bytes);
    if (anyLinkFault_) {
        // Detours are not tree-shaped: union the fault-aware routes of
        // the distinct destinations. The link buffer is a member so its
        // capacity persists across calls.
        std::vector<TileId> targets(dsts);
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
        auto &links = scratchLinks_;
        links.clear();
        for (TileId dst : targets) {
            if (dst == src)
                continue;
            const auto rt = routeMessage(src, dst);
#ifdef ADYNA_SANITIZE
            validateRoute(rt, src, dst);
#endif
            maxHops = std::max(maxHops, static_cast<int>(rt.size()));
            links.insert(links.end(), rt.begin(), rt.end());
        }
        std::sort(links.begin(), links.end());
        links.erase(std::unique(links.begin(), links.end()), links.end());
        for (std::size_t link : links)
            latest = std::max(latest,
                              acquireLink(link, earliest, bytes, dur).end);
        unionLinks = links.size();
    } else {
        // X-Y routing from one source is a tree: every path runs along
        // the source row to its destination's column, then along that
        // column. The union is therefore the first `east`/`west` links
        // of the source row (the farthest destination column each
        // way) plus, per column, the first south/north links from the
        // source row (the farthest destination row each way). One
        // pass over dsts reads the extents off the source's rows of
        // the step tables, so the tie goes the way the walker goes.
        const int cols = cfg_.gridCols;
        const TilePos from = tilePos_[src];
        const int *colSteps =
            &colSteps_[static_cast<std::size_t>(from.col * cols)];
        const int *rowSteps =
            &rowSteps_[static_cast<std::size_t>(from.row * cfg_.gridRows)];
        int east = 0;
        int west = 0;
        for (TileId dst : dsts) {
            const TilePos to = tilePos_[dst];
            const int dx = colSteps[to.col];
            const int dy = rowSteps[to.row];
            int &xExtent = dx > 0 ? east : west;
            int &yExtent = (dy > 0 ? southExtent_ : northExtent_)
                [static_cast<std::size_t>(to.col)];
            xExtent = std::max(xExtent, std::abs(dx));
            yExtent = std::max(yExtent, std::abs(dy));
            maxHops = std::max(maxHops, std::abs(dx) + std::abs(dy));
        }

        const auto reserve = [&](std::size_t link) {
            latest = std::max(latest,
                              acquireLink(link, earliest, bytes, dur).end);
            ++unionLinks;
        };
        straight(src, kLinkEast, east, reserve);
        straight(src, kLinkWest, west, reserve);
        const TileId rowStart = src - static_cast<TileId>(from.col);
        for (int col = 0; col < cols; ++col) {
            const TileId branch = rowStart + static_cast<TileId>(col);
            int &south = southExtent_[static_cast<std::size_t>(col)];
            int &north = northExtent_[static_cast<std::size_t>(col)];
            straight(branch, kLinkSouth, south, reserve);
            straight(branch, kLinkNorth, north, reserve);
            south = 0;
            north = 0;
        }
    }
    t.hops = maxHops;
    t.end = latest + static_cast<Tick>(maxHops) * cfg_.nocHopLatency;
    t.byteHops = bytes * static_cast<Bytes>(unionLinks);
    byteHops_ += t.byteHops;
    return t;
}

Tick
Noc::probeAck(Tick now, TileId src, TileId dst)
{
    const int h = anyLinkFault_ && downLinks_ > 0
                      ? static_cast<int>(route(src, dst).size())
                      : hops(src, dst);
    const Tick clean =
        2 * static_cast<Tick>(h) * cfg_.nocHopLatency;
    if (probeDropProb_ <= 0.0 || now >= probeDropUntil_ || src == dst)
        return clean;

    // Inside a drop window: each lost round trip costs the current
    // retransmission timeout and doubles it; an exhausted budget
    // escalates to a host-coordinated sync.
    Tick waited = 0;
    Tick timeout = cfg_.probeTimeoutCycles;
    for (int attempt = 0; attempt <= cfg_.probeMaxRetries; ++attempt) {
        if (!probeRng_.bernoulli(probeDropProb_))
            return waited + clean;
        ++probeDrops_;
        if (attempt < cfg_.probeMaxRetries) {
            ++probeRetries_;
            waited += timeout;
            timeout *= 2;
        }
    }
    ++probeGiveUps_;
    return waited + clean + cfg_.probeGiveUpPenaltyCycles;
}

void
Noc::setLinkDown(TileId tile, int dir, bool down)
{
    const std::size_t link = linkIndex(tile, dir);
    ADYNA_ASSERT(link < linkDown_.size(), "bad link ", tile, "/", dir);
    if (static_cast<bool>(linkDown_[link]) == down)
        return;
    linkDown_[link] = down ? 1 : 0;
    downLinks_ += down ? 1 : -1;
    anyLinkFault_ =
        downLinks_ > 0 || degradedLinks_ > 0 || probeDropProb_ > 0.0;
}

void
Noc::setLinkBandwidthFactor(TileId tile, int dir, double factor)
{
    const std::size_t link = linkIndex(tile, dir);
    ADYNA_ASSERT(link < linkFactor_.size(), "bad link ", tile, "/",
                 dir);
    ADYNA_ASSERT(factor > 0.0 && factor <= 1.0,
                 "bandwidth factor must be in (0, 1], got ", factor);
    const bool was = linkFactor_[link] < 1.0;
    const bool is = factor < 1.0;
    linkFactor_[link] = factor;
    degradedLinks_ += (is ? 1 : 0) - (was ? 1 : 0);
    anyLinkFault_ =
        downLinks_ > 0 || degradedLinks_ > 0 || probeDropProb_ > 0.0;
}

void
Noc::setProbeDropWindow(double prob, Tick until, std::uint64_t seed)
{
    ADYNA_ASSERT(prob >= 0.0 && prob <= 1.0,
                 "drop probability must be in [0, 1], got ", prob);
    probeDropProb_ = prob;
    probeDropUntil_ = until;
    if (prob > 0.0)
        probeRng_ = Rng(seed);
    anyLinkFault_ =
        downLinks_ > 0 || degradedLinks_ > 0 || probeDropProb_ > 0.0;
}

void
Noc::clearFaults()
{
    std::fill(linkDown_.begin(), linkDown_.end(), 0);
    std::fill(linkFactor_.begin(), linkFactor_.end(), 1.0);
    downLinks_ = 0;
    degradedLinks_ = 0;
    probeDropProb_ = 0.0;
    probeDropUntil_ = 0;
    anyLinkFault_ = false;
}

bool
Noc::linkDown(TileId tile, int dir) const
{
    return linkDown_[linkIndex(tile, dir)] != 0;
}

#ifdef ADYNA_SANITIZE
void
Noc::validateRoute(const std::vector<std::size_t> &route, TileId src,
                   TileId dst) const
{
    TileId at = src;
    for (std::size_t link : route) {
        ADYNA_ASSERT(link < linkDown_.size(), "route uses bad link ",
                     link);
        ADYNA_ASSERT(static_cast<TileId>(link / 4) == at,
                     "route link ", link, " does not leave tile ", at);
        at = linkTargets_[link];
    }
    ADYNA_ASSERT(at == dst, "route from ", src, " ends at ", at,
                 " instead of ", dst);
}
#endif

Tick
Noc::linkBusyTicks() const
{
    Tick total = 0;
    for (const auto &link : links_)
        total += link.busyTicks();
    return total;
}

std::uint64_t
Noc::linkAcquires() const
{
    std::uint64_t total = 0;
    for (const auto &link : links_)
        total += link.acquires();
    return total;
}

std::uint64_t
Noc::linkRepeatGrants() const
{
    std::uint64_t total = 0;
    for (const auto &link : links_)
        total += link.repeatGrants();
    return total;
}

void
Noc::trim(Tick before)
{
    for (auto &link : links_)
        link.trim(before);
}

void
Noc::reset()
{
    for (auto &link : links_)
        link.reset();
    byteHops_ = 0;
}

} // namespace adyna::arch
