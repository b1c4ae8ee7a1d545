#include "arch/hbm.hh"

#include "common/logging.hh"

namespace adyna::arch {

Hbm::Hbm(const HwConfig &cfg) : cfg_(cfg)
{
    ADYNA_ASSERT(cfg_.hbmStacks >= 1, "need at least one HBM stack");
    const double perChannel =
        cfg_.hbmTotalBytesPerCycle / cfg_.hbmStacks;
    channels_.reserve(static_cast<std::size_t>(cfg_.hbmStacks));
    for (int i = 0; i < cfg_.hbmStacks; ++i)
        channels_.emplace_back(perChannel);
}

int
Hbm::channelOf(TileId tile) const
{
    // Interfaces spread along the chip edge: map by column band.
    const int col = cfg_.tileCol(tile);
    return col * cfg_.hbmStacks / cfg_.gridCols;
}

HbmAccess
Hbm::access(Tick earliest, TileId tile, Bytes bytes)
{
    HbmAccess a;
    a.start = earliest;
    if (bytes == 0) {
        a.end = earliest;
        return a;
    }
    auto &channel =
        channels_[static_cast<std::size_t>(channelOf(tile))];
    const auto res = channel.acquire(earliest, bytes);
    a.end = res.end + cfg_.hbmLatency;
    return a;
}

Bytes
Hbm::bytesServed() const
{
    Bytes total = 0;
    for (const auto &c : channels_)
        total += c.bytesServed();
    return total;
}

Tick
Hbm::busyTicks() const
{
    Tick total = 0;
    for (const auto &c : channels_)
        total += c.busyTicks();
    return total;
}

double
Hbm::totalBandwidth() const
{
    return cfg_.hbmTotalBytesPerCycle;
}

void
Hbm::trim(Tick before)
{
    for (auto &c : channels_)
        c.trim(before);
}

std::size_t
Hbm::reservationCount() const
{
    std::size_t total = 0;
    for (const auto &c : channels_)
        total += c.reservationCount();
    return total;
}

std::uint64_t
Hbm::acquires() const
{
    std::uint64_t total = 0;
    for (const auto &c : channels_)
        total += c.acquires();
    return total;
}

std::uint64_t
Hbm::repeatGrants() const
{
    std::uint64_t total = 0;
    for (const auto &c : channels_)
        total += c.repeatGrants();
    return total;
}

void
Hbm::reset()
{
    for (auto &c : channels_)
        c.reset();
}

} // namespace adyna::arch
