/**
 * @file
 * The whole accelerator: tile compute occupancy, the torus NoC, the
 * HBM stacks, and the energy/utilization accounting the evaluation
 * figures are built from.
 */

#ifndef ADYNA_ARCH_CHIP_HH
#define ADYNA_ARCH_CHIP_HH

#include <vector>

#include "arch/hbm.hh"
#include "arch/hwconfig.hh"
#include "arch/noc.hh"
#include "arch/resource.hh"

namespace adyna::arch {

/** Energy breakdown in picojoules (Figure 11's categories). */
struct EnergyBreakdown
{
    PicoJoules pe = 0.0;   ///< MAC array (incl. register files)
    PicoJoules sram = 0.0; ///< scratchpad traffic
    PicoJoules hbm = 0.0;  ///< off-chip DRAM traffic
    PicoJoules noc = 0.0;  ///< on-chip interconnect traffic

    PicoJoules total() const { return pe + sram + hbm + noc; }
};

/** The modelled accelerator chip. */
class Chip
{
  public:
    explicit Chip(const HwConfig &cfg);

    const HwConfig &config() const { return cfg_; }
    Noc &noc() { return noc_; }
    const Noc &noc() const { return noc_; }
    Hbm &hbm() { return hbm_; }
    const Hbm &hbm() const { return hbm_; }

    /**
     * Occupy @p tiles for @p duration cycles starting no earlier
     * than @p earliest; all tiles start together (SIMD tile group).
     * @return the [start, end) reservation.
     */
    Reservation occupyTiles(Tick earliest,
                                 const std::vector<TileId> &tiles,
                                 Tick duration);

    /** Earliest time all of @p tiles are free. */
    Tick tilesFreeAt(const std::vector<TileId> &tiles) const;

    /** Latest busy-until over every tile (pipeline drain point). */
    Tick allTilesFreeAt() const;

    /** Charge PE (MAC array) energy. */
    void chargePeEnergy(PicoJoules pj) { energy_.pe += pj; }

    /** Charge scratchpad traffic energy. */
    void chargeSramEnergy(PicoJoules pj) { energy_.sram += pj; }

    /** Charge DRAM traffic energy for @p bytes. */
    void chargeHbmEnergy(Bytes bytes);

    /** Charge NoC energy for @p byte_hops. */
    void chargeNocEnergy(Bytes byte_hops);

    /** Record issued MACs (PE utilization numerator, incl. redundant
     * work) and useful MACs. */
    void recordMacs(MacCount issued, MacCount useful);

    /** Record tile busy cycles (sum over tiles of occupancy). */
    void recordBusy(Tick tile_cycles) { busyTileCycles_ += tile_cycles; }

    // --- fault state (driven by fault::FaultInjector) ---------------

    /** Mark a tile failed: it stops contributing compute until
     * recoverTile(). Reservations it already holds stand (in-flight
     * work is drained by the degraded-execution model). */
    void failTile(TileId tile);

    /** Bring a failed tile back. */
    void recoverTile(TileId tile);

    bool tileHealthy(TileId tile) const
    {
        return failedMask_.empty() || !failedMask_[tile];
    }

    /** Cheap gate for the engine's degraded-execution branch. */
    bool anyTileFailed() const { return failedTiles_ > 0; }

    int failedTileCount() const { return failedTiles_; }

    /** Ascending ids of the currently healthy tiles. */
    std::vector<TileId> healthyTiles() const;

    // --- metrics ----------------------------------------------------

    const EnergyBreakdown &energy() const { return energy_; }
    MacCount issuedMacs() const { return issuedMacs_; }
    MacCount usefulMacs() const { return usefulMacs_; }
    Tick busyTileCycles() const { return busyTileCycles_; }

    /** PE utilization over a run of @p total_cycles: issued MACs /
     * (peak MACs in that window). Matches Figure 10's semantics
     * (redundant work counts as busy). */
    double peUtilization(Tick total_cycles) const;

    /** DRAM bandwidth utilization over @p total_cycles. */
    double hbmUtilization(Tick total_cycles) const;

    /** Drop all reservations and metrics. */
    void reset();

  private:
    HwConfig cfg_;
    Noc noc_;
    Hbm hbm_;
    std::vector<SerialResource> tileCompute_;

    EnergyBreakdown energy_;
    MacCount issuedMacs_ = 0;
    MacCount usefulMacs_ = 0;
    Tick busyTileCycles_ = 0;

    /** Failed-tile mask; empty until the first failTile() so the
     * fault-free tileHealthy() fast path is one emptiness test. */
    std::vector<char> failedMask_;
    int failedTiles_ = 0;
};

} // namespace adyna::arch

#endif // ADYNA_ARCH_CHIP_HH
