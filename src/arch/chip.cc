#include "arch/chip.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adyna::arch {

Chip::Chip(const HwConfig &cfg)
    : cfg_(cfg), noc_(cfg), hbm_(cfg),
      tileCompute_(static_cast<std::size_t>(cfg.tiles()))
{
}

Reservation
Chip::occupyTiles(Tick earliest, const std::vector<TileId> &tiles,
                  Tick duration)
{
    ADYNA_ASSERT(!tiles.empty(), "occupyTiles with empty group");
    Tick start = earliest;
    for (TileId t : tiles) {
        ADYNA_ASSERT(t < tileCompute_.size(), "bad tile id ", t);
        start = std::max(start, tileCompute_[t].busyUntil());
    }
    for (TileId t : tiles)
        tileCompute_[t].acquire(start, duration);
    recordBusy(duration * static_cast<Tick>(tiles.size()));
    return {start, start + duration};
}

Tick
Chip::tilesFreeAt(const std::vector<TileId> &tiles) const
{
    Tick at = 0;
    for (TileId t : tiles) {
        ADYNA_ASSERT(t < tileCompute_.size(), "bad tile id ", t);
        at = std::max(at, tileCompute_[t].busyUntil());
    }
    return at;
}

Tick
Chip::allTilesFreeAt() const
{
    Tick at = 0;
    for (const auto &res : tileCompute_)
        at = std::max(at, res.busyUntil());
    return at;
}

void
Chip::failTile(TileId tile)
{
    ADYNA_ASSERT(tile < tileCompute_.size(), "bad tile id ", tile);
    if (failedMask_.empty())
        failedMask_.assign(tileCompute_.size(), 0);
    if (failedMask_[tile])
        return;
    failedMask_[tile] = 1;
    ++failedTiles_;
}

void
Chip::recoverTile(TileId tile)
{
    ADYNA_ASSERT(tile < tileCompute_.size(), "bad tile id ", tile);
    if (failedMask_.empty() || !failedMask_[tile])
        return;
    failedMask_[tile] = 0;
    --failedTiles_;
}

std::vector<TileId>
Chip::healthyTiles() const
{
    std::vector<TileId> out;
    out.reserve(tileCompute_.size());
    for (TileId t = 0; t < tileCompute_.size(); ++t)
        if (tileHealthy(t))
            out.push_back(t);
    return out;
}

void
Chip::chargeHbmEnergy(Bytes bytes)
{
    energy_.hbm +=
        cfg_.tech.eDramPerBytePj * static_cast<double>(bytes);
}

void
Chip::chargeNocEnergy(Bytes byte_hops)
{
    energy_.noc +=
        cfg_.tech.eNocPerByteHopPj * static_cast<double>(byte_hops);
}

void
Chip::recordMacs(MacCount issued, MacCount useful)
{
    issuedMacs_ += issued;
    usefulMacs_ += useful;
}

double
Chip::peUtilization(Tick total_cycles) const
{
    if (total_cycles == 0)
        return 0.0;
    const double peak = static_cast<double>(total_cycles) *
                        cfg_.tiles() *
                        static_cast<double>(cfg_.tech.macsPerCycle());
    return static_cast<double>(issuedMacs_) / peak;
}

double
Chip::hbmUtilization(Tick total_cycles) const
{
    if (total_cycles == 0)
        return 0.0;
    const double peak = static_cast<double>(total_cycles) *
                        hbm_.totalBandwidth();
    return static_cast<double>(hbm_.bytesServed()) / peak;
}

void
Chip::reset()
{
    noc_.reset();
    hbm_.reset();
    for (auto &t : tileCompute_)
        t.reset();
    energy_ = EnergyBreakdown{};
    issuedMacs_ = 0;
    usefulMacs_ = 0;
    busyTileCycles_ = 0;
}

} // namespace adyna::arch
