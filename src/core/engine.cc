#include "core/engine.hh"

#include <algorithm>
#include <cmath>

#include "arch/resource.hh"
#include "common/logging.hh"

namespace adyna::core {

using costmodel::KernelCost;
using costmodel::Mapping;
using graph::OpKind;
using graph::OpNode;

Engine::ExecCost
Engine::accumulate(ExecCost acc, const KernelCost &c)
{
    acc.cycles += c.cycles;
    acc.useful += c.usefulMacs;
    acc.issued += c.issuedMacs;
    acc.spill += c.dramSpillBytes;
    acc.sram += c.sramBytes;
    return acc;
}

Engine::ExecCost
Engine::accumulateN(ExecCost acc, const KernelCost &c, std::int64_t n)
{
    if (n <= 0)
        return acc;
    const auto k = static_cast<std::uint64_t>(n);
    acc.cycles += c.cycles * k;
    acc.useful += c.usefulMacs * static_cast<MacCount>(k);
    acc.issued += c.issuedMacs * static_cast<MacCount>(k);
    acc.spill += c.dramSpillBytes * k;
    acc.sram += c.sramBytes * k;
    return acc;
}

Engine::Engine(const graph::DynGraph &dg, arch::HwConfig hw,
               costmodel::Mapper &mapper, ExecPolicy policy)
    : dg_(dg), hw_(std::move(hw)), mapper_(mapper), policy_(policy),
      snake_(arch::snakeTileOrder(hw_)),
      segOf_(dg.graph().size(), -1), stageOf_(dg.graph().size(), -1)
{
    if (policy_.perBatchRepartition)
        ADYNA_ASSERT(policy_.exactKernels,
                     "per-batch repartition requires exact kernels");
    perRowWork_.reserve(dg_.graph().size());
    for (const OpNode &node : dg_.graph().nodes())
        perRowWork_.push_back(costmodel::perRowWork(node, hw_.tech));
}

PeriodResult
Engine::runPeriod(arch::Chip &chip, const Schedule &schedule,
                  const std::vector<trace::BatchRouting> &batches,
                  arch::Profiler *profiler, Tick barrier)
{
    PeriodResult result;
    runPeriod(chip, schedule, batches, profiler, barrier, result);
    return result;
}

void
Engine::runPeriod(arch::Chip &chip, const Schedule &schedule,
                  const std::vector<trace::BatchRouting> &batches,
                  arch::Profiler *profiler, Tick barrier,
                  PeriodResult &result)
{
    const std::size_t numBatches = batches.size();
    result.endTime = 0;
    result.batchEnds.assign(numBatches, barrier);

    // Every HBM access and NoC transfer this period uses
    // earliest >= barrier, and the barrier is monotone across
    // periods on one chip, so reservations ending at or before it
    // can no longer affect any grant.
    chip.hbm().trim(barrier);
    chip.noc().trim(barrier);

    const std::vector<TileId> &snake = snake_;
    // Switch/merge on the host CPU (M-tenant): a serial processor
    // that executes routing tasks in time order (gap-filling, one
    // cycle-unit per tick). Member state so its interval buffer is
    // reused; reset restores the fresh-per-period semantics.
    arch::GapBandwidthResource &hostCpu = hostCpu_;
    hostCpu.reset();

    // Record per-switch branch loads once per batch.
    if (profiler) {
        for (const auto &routing : batches) {
            profiler->noteBatch();
            for (const auto &[sw, oc] : routing.outcomes)
                profiler->recordBranchLoads(sw, oc.branchCounts);
        }
    }

    // Where every stage op sits, for the producer-stage lookups and
    // write-out flags below.
    std::fill(segOf_.begin(), segOf_.end(), -1);
    for (std::size_t s = 0; s < schedule.segments.size(); ++s) {
        const Segment &seg = *schedule.segments[s];
        for (std::size_t si = 0; si < seg.stages.size(); ++si) {
            segOf_[seg.stages[si].op] = static_cast<int>(s);
            stageOf_[seg.stages[si].op] = static_cast<int>(si);
        }
    }

    // The inter-segment reconfiguration barrier drains only the
    // tiles this schedule can touch. For a full-grid schedule that
    // is every tile it ever occupies, so the value is identical to
    // a whole-chip drain; for a schedule restricted to a tile
    // region (multi-tenant partitions, fail-over survivors) it
    // scopes the drain to the region — co-tenants on disjoint tiles
    // no longer serialize each other's segment boundaries. The
    // per-batch repartition policy draws tiles from the global
    // snake order instead of the stage ranges, so it keeps the
    // whole-chip barrier.
    const bool wholeChipBarrier = policy_.perBatchRepartition;
    if (!wholeChipBarrier) {
        periodTileSeen_.assign(
            static_cast<std::size_t>(hw_.tiles()), 0);
        periodTiles_.clear();
        for (const auto &segp : schedule.segments)
            for (const StageAssign &st : segp->stages)
                for (TileId tile : st.tiles)
                    if (!periodTileSeen_[tile]) {
                        periodTileSeen_[tile] = 1;
                        periodTiles_.push_back(tile);
                    }
    }

    Tick segBarrier = barrier;
    for (std::size_t s = 0; s < schedule.segments.size(); ++s) {
        const Segment &seg = *schedule.segments[s];
        if (seg.stages.empty())
            continue;
        const int here = static_cast<int>(s);
        // Stage index of @p op within this segment, or -1 for an
        // external producer (earlier segment or graph input).
        const auto stageIn = [&](OpId op) {
            return segOf_[op] == here ? stageOf_[op] : -1;
        };
        const auto elsewhere = [&](OpId op) {
            return segOf_[op] >= 0 && segOf_[op] != here;
        };

        // A stage writes to DRAM if a graph output or a stage of
        // another segment consumes it, or unconditionally without
        // pipelining.
        writesOut_.resize(seg.stages.size());
        for (std::size_t si = 0; si < seg.stages.size(); ++si) {
            const OpId op = seg.stages[si].op;
            writesOut_[si] =
                !policy_.pipelining || dg_.feedsOutput(op) ||
                std::ranges::any_of(dg_.consumers(op), elsewhere);
        }

        // Load resident weights at segment activation.
        if (seg.residentWeightBytes > 0) {
            const auto acc = chip.hbm().access(
                segBarrier, seg.stages.front().tiles.front(),
                seg.residentWeightBytes);
            chip.chargeHbmEnergy(seg.residentWeightBytes);
            segBarrier = acc.end;
        }

        repartCount_.clear(); // fresh partition per segment

        // Per-stage start/completion times (flattened to
        // [stage * numBatches + batch]) and per-batch used tiles,
        // all in member scratch whose capacity persists.
        starts_.assign(seg.stages.size() * numBatches, 0);
        ends_.assign(seg.stages.size() * numBatches, 0);
        if (usedTiles_.size() < seg.stages.size())
            usedTiles_.resize(seg.stages.size());
        const auto at = [numBatches](std::size_t si, std::size_t b) {
            return si * numBatches + b;
        };

        Tick segEnd = segBarrier;
        for (std::size_t b = 0; b < numBatches; ++b) {
            const trace::BatchRouting &routing = batches[b];

            const auto vActualOf = [&](OpId op) {
                return routing.dynValue(dg_, op);
            };
            const auto vExecOf = [&](OpId op) {
                return policy_.worstCaseExec ? dg_.maxDyn(op)
                                             : vActualOf(op);
            };

            // Tile-sharing configuration per pair for this batch.
            // A schedule built without sharing has no pairs.
            pairConfig_.assign(seg.pairs.size(), 0);
            std::vector<int> &pairConfig = pairConfig_;
            for (std::size_t p = 0; p < seg.pairs.size(); ++p) {
                const SharePair &pair = seg.pairs[p];
                const OpId opA =
                    seg.stages[static_cast<std::size_t>(pair.stageA)].op;
                const OpId opB =
                    seg.stages[static_cast<std::size_t>(pair.stageB)].op;
                const double loadA =
                    static_cast<double>(vExecOf(opA)) * perRowWork_[opA];
                const double loadB =
                    static_cast<double>(vExecOf(opB)) * perRowWork_[opB];
                double best = -1.0;
                for (int c = 0; c < 3; ++c) {
                    const auto [ta, tb] =
                        pair.alloc[static_cast<std::size_t>(c)];
                    const double makespan =
                        std::max(loadA / ta, loadB / tb);
                    if (best < 0.0 || makespan < best) {
                        best = makespan;
                        pairConfig[p] = c;
                    }
                }
            }

            // M-tenant: re-partition the segment's tiles for this
            // batch proportional to the actual loads, with
            // hysteresis -- the partition only moves when some
            // stage's ideal share drifts substantially, as frequent
            // subarray reassignment would thrash the pipeline.
            if (policy_.perBatchRepartition) {
                works_.assign(seg.stages.size(), 0.0);
                std::vector<double> &works = works_;
                double total = 0.0;
                for (std::size_t si = 0; si < seg.stages.size(); ++si) {
                    const OpId op = seg.stages[si].op;
                    works[si] = std::max<double>(
                                    1.0, static_cast<double>(
                                             vExecOf(op))) *
                                perRowWork_[op];
                    total += works[si];
                }
                const int T = hw_.tiles();
                ideal_.assign(seg.stages.size(), 0);
                std::vector<int> &ideal = ideal_;
                int used = 0;
                for (std::size_t si = 0; si < seg.stages.size(); ++si) {
                    ideal[si] = std::max(
                        1, static_cast<int>(works[si] / total * T));
                    used += ideal[si];
                }
                // Trim overshoot from the largest allocations.
                while (used > T) {
                    const auto it =
                        std::max_element(ideal.begin(), ideal.end());
                    if (*it <= 1)
                        break;
                    --*it;
                    --used;
                }
                bool move = repartCount_.size() != ideal.size();
                if (!move) {
                    for (std::size_t si = 0; si < ideal.size(); ++si) {
                        const double cur =
                            static_cast<double>(repartCount_[si]);
                        const double want =
                            static_cast<double>(ideal[si]);
                        if (std::abs(want - cur) >
                            0.25 * std::max(cur, 1.0)) {
                            move = true;
                            break;
                        }
                    }
                }
                if (move)
                    std::swap(repartCount_, ideal_);
            }
            const std::vector<int> &repartCount = repartCount_;

            int repartBase = 0;
            for (std::size_t si = 0; si < seg.stages.size(); ++si) {
                const StageAssign &st = seg.stages[si];
                const OpNode &node = dg_.graph().node(st.op);
                const std::int64_t vActual = vActualOf(st.op);
                const std::int64_t vExec = vExecOf(st.op);

                if (profiler && dg_.isDynamic(st.op))
                    profiler->recordValue(st.op, vActual);

                // Effective tile group for this batch, built in
                // place in the per-stage scratch slot (its capacity
                // survives across batches and periods).
                std::vector<TileId> &tiles = usedTiles_[si];
                tiles.clear();
                if (policy_.perBatchRepartition) {
                    const int count = repartCount[si];
                    for (int t = 0; t < count; ++t)
                        tiles.push_back(
                            snake[static_cast<std::size_t>(
                                (repartBase + t) %
                                hw_.tiles())]);
                    repartBase += count;
                } else if (st.sharePair >= 0) {
                    const SharePair &pair =
                        seg.pairs[static_cast<std::size_t>(
                            st.sharePair)];
                    const auto [ta, tb] =
                        pair.alloc[static_cast<std::size_t>(
                            pairConfig[static_cast<std::size_t>(
                                st.sharePair)])];
                    const int count = st.shareFirst ? ta : tb;
                    if (st.shareFirst) {
                        tiles.assign(st.tiles.begin(),
                                     st.tiles.begin() + count);
                    } else {
                        tiles.assign(st.tiles.end() - count,
                                     st.tiles.end());
                    }
                } else {
                    tiles.assign(st.tiles.begin(),
                                 st.tiles.begin() + st.baseTiles);
                }
                const int tileCount = static_cast<int>(tiles.size());

                // Empty sub-batch with fitting: nothing to execute.
                if (vExec == 0 && policy_.kernelFitting) {
                    Tick ready = segBarrier;
                    for (const graph::Producer &p :
                         dg_.producers(st.op)) {
                        const int ps = stageIn(p.op);
                        if (ps >= 0)
                            ready = std::max(
                                ready,
                                ends_[at(static_cast<std::size_t>(ps),
                                         b)]);
                    }
                    starts_[at(si, b)] = ready;
                    ends_[at(si, b)] = ready;
                    segEnd = std::max(segEnd, ready);
                    continue;
                }

                // --- kernel selection and cost -----------------------
                ExecCost cost;
                bool rowSplit = true; // consumer splits rows (N)?
                if (policy_.exactKernels) {
                    const Mapping m = mapper_.search(
                        node, std::max<std::int64_t>(vExec, 1),
                        tileCount);
                    rowSplit = m.splitFactor(graph::Dim::N) > 1 ||
                               tileCount == 1;
                    cost = accumulate(
                        cost, evalKernel(node, m, vExec,
                                         policy_.kernelFitting,
                                         hw_.tech));
                } else {
                    const auto storeIt = st.stores.find(tileCount);
                    ADYNA_ASSERT(storeIt != st.stores.end(),
                                 "no kernel store for op ", st.op,
                                 " at ", tileCount, " tiles");
                    const auto &store = *storeIt->second;
                    const auto d = store.dispatch(
                        std::max<std::int64_t>(vExec, 1));
                    const Mapping &m = store.at(d.index).mapping;
                    rowSplit = m.splitFactor(graph::Dim::N) > 1 ||
                               tileCount == 1;
                    const std::int64_t full = d.perPass;
                    // Every non-final pass evaluates the kernel with
                    // identical arguments; one evaluation scaled by
                    // the pass count is exact (all-integer costs), so
                    // the per-row event work collapses to a per-stage
                    // aggregate without changing a single byte.
                    if (d.passes > 1)
                        cost = accumulateN(
                            cost,
                            evalKernel(node, m, full,
                                       policy_.kernelFitting,
                                       hw_.tech),
                            d.passes - 1);
                    const std::int64_t lastRows =
                        vExec - (d.passes - 1) * full;
                    cost = accumulate(
                        cost,
                        evalKernel(node, m,
                                   std::max<std::int64_t>(lastRows, 0),
                                   policy_.kernelFitting, hw_.tech));
                    // Useful work never exceeds the actual rows.
                    cost.useful = std::min<MacCount>(
                        cost.useful,
                        static_cast<MacCount>(vActual) *
                            static_cast<MacCount>(
                                node.macs() /
                                std::max<std::int64_t>(node.dims.n(),
                                                       1)));
                }

                // --- input readiness ----------------------------------
                // Pipelined (NoC) producers hand blocks over as they
                // are produced (Section II-B's inter-operator
                // pipelining): the consumer may START once the first
                // blocks arrive, but cannot FINISH before the
                // producer's last block plus its transfer. DRAM /
                // host edges remain store-and-forward.
                Tick startLB = segBarrier;
                Tick endLB = 0;
                for (const graph::Producer &p : dg_.producers(st.op)) {
                    const std::int64_t vProd =
                        dg_.graph().node(p.op).kind == OpKind::Input
                            ? vExec
                            : vExecOf(p.op);
                    const Bytes bytes =
                        static_cast<Bytes>(
                            std::min(vProd, vExec)) *
                        dg_.outBytesPerRow(p.op);
                    if (bytes == 0)
                        continue;

                    const int producerStage = stageIn(p.op);
                    const bool internal = producerStage >= 0;
                    const bool viaHost =
                        policy_.hostRouting && p.crossesRouting;
                    if (internal && policy_.pipelining && !viaHost) {
                        const std::size_t pi =
                            static_cast<std::size_t>(producerStage);
                        const auto &src = usedTiles_[pi];
                        const Tick sync = chip.noc().probeAck(
                            starts_[at(pi, b)], src.front(),
                            tiles.front());
                        Tick t0 = starts_[at(pi, b)] + sync;
                        // Double-buffered input slots: wait for the
                        // slot freed by batch b-2.
                        if (b >= 2)
                            t0 = std::max(t0, ends_[at(si, b - 2)]);
                        Tick done = t0;
                        if (rowSplit) {
                            // Row-split consumer: each destination
                            // tile receives its own row slice. The
                            // slices sum exactly to the produced
                            // bytes (remainder spread one byte per
                            // leading slice); empty slices move
                            // nothing.
                            for (std::size_t i = 0; i < src.size();
                                 ++i) {
                                const Bytes slice = nocSliceBytes(
                                    bytes, src.size(), i);
                                if (slice == 0)
                                    continue;
                                const auto tr = chip.noc().transfer(
                                    t0, src[i],
                                    tiles[i % tiles.size()], slice);
                                done = std::max(done, tr.end);
                                chip.chargeNocEnergy(tr.byteHops);
                            }
                        } else {
                            // Feature-split consumer: every tile
                            // needs the whole tensor -> each source
                            // slice is multicast to the group
                            // (Section VI-B's multicast support).
                            for (std::size_t i = 0; i < src.size();
                                 ++i) {
                                const Bytes slice = nocSliceBytes(
                                    bytes, src.size(), i);
                                if (slice == 0)
                                    continue;
                                const auto tr = chip.noc().multicast(
                                    t0, src[i], tiles, slice);
                                done = std::max(done, tr.end);
                                chip.chargeNocEnergy(tr.byteHops);
                            }
                        }
                        startLB = std::max(startLB, t0);
                        endLB = std::max(
                            {endLB, done, ends_[at(pi, b)] + sync});
                    } else {
                        // DRAM round trip (and host switch/merge).
                        Tick t0 =
                            internal
                                ? ends_[at(static_cast<std::size_t>(
                                               producerStage),
                                           b)]
                                : segBarrier;
                        if (viaHost) {
                            t0 = hostCpu
                                     .acquire(t0,
                                              policy_.hostSyncCycles)
                                     .end;
                        }
                        const auto acc = chip.hbm().access(
                            t0, tiles.front(), bytes);
                        chip.chargeHbmEnergy(bytes);
                        startLB = std::max(startLB, acc.end);
                    }
                }

                // Streamed weights and scratchpad spills overlap
                // with the computation (double-buffered prefetch):
                // they bound the completion, not the start.
                if (!st.weightsResident && node.weightBytes() > 0) {
                    const auto acc = chip.hbm().access(
                        startLB, tiles.front(), node.weightBytes());
                    chip.chargeHbmEnergy(node.weightBytes());
                    endLB = std::max(endLB, acc.end);
                }
                if (cost.spill > 0) {
                    const auto acc = chip.hbm().access(
                        startLB, tiles.front(), cost.spill);
                    chip.chargeHbmEnergy(cost.spill);
                    endLB = std::max(endLB, acc.end);
                }

                // --- compute -----------------------------------------
                // Fault degradation: a SIMD tile group runs in
                // lockstep, so every dead member's shard costs one
                // extra full pass on a surviving neighbour while the
                // group stalls; a fully dead group escalates to host
                // execution. Gated on anyTileFailed() so fault-free
                // runs take the exact legacy path.
                Cycles execCycles = cost.cycles;
                if (chip.anyTileFailed()) {
                    int healthy = 0;
                    for (TileId t : tiles)
                        healthy += chip.tileHealthy(t) ? 1 : 0;
                    const int dead = tileCount - healthy;
                    if (healthy == 0) {
                        execCycles = static_cast<Cycles>(
                            static_cast<double>(execCycles) *
                            kDeadGroupPenalty);
                    } else if (dead > 0) {
                        execCycles *=
                            static_cast<Cycles>(1 + dead);
                    }
                }
                const Tick start =
                    std::max(startLB, chip.tilesFreeAt(tiles));
                const Tick duration = std::max<Tick>(
                    execCycles, endLB > start ? endLB - start : 0);
                const auto res =
                    chip.occupyTiles(start, tiles, duration);
                starts_[at(si, b)] = res.start;
                ends_[at(si, b)] = res.end;
                segEnd = std::max(segEnd, res.end);
                chip.recordMacs(cost.issued, cost.useful);
                chip.chargePeEnergy(hw_.tech.eMacPj *
                                    static_cast<double>(cost.issued));
                chip.chargeSramEnergy(
                    hw_.tech.eSramPerBytePj *
                    static_cast<double>(cost.sram));

                // --- output write-back --------------------------------
                if (writesOut_[si]) {
                    const Bytes outBytes =
                        static_cast<Bytes>(vExec) *
                        dg_.outBytesPerRow(st.op);
                    if (outBytes > 0) {
                        const auto acc = chip.hbm().access(
                            res.end, tiles.front(), outBytes);
                        chip.chargeHbmEnergy(outBytes);
                        segEnd = std::max(segEnd, acc.end);
                        if (!policy_.pipelining)
                            ends_[at(si, b)] = acc.end;
                    }
                }
            }

            // Batch completion at the last stage of this segment.
            Tick batchEnd = result.batchEnds[b];
            for (std::size_t si = 0; si < seg.stages.size(); ++si)
                batchEnd = std::max(batchEnd, ends_[at(si, b)]);
            result.batchEnds[b] = batchEnd;
        }
        segBarrier = std::max(segEnd,
                              wholeChipBarrier
                                  ? chip.allTilesFreeAt()
                                  : chip.tilesFreeAt(periodTiles_));
        result.endTime = segBarrier;
    }
}

} // namespace adyna::core
