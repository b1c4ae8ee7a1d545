#include "trace/trace.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace adyna::trace {

using graph::OpKind;
using graph::RoutingPolicy;
using graph::SwitchInfo;

std::int64_t
BatchRouting::dynValue(const graph::DynGraph &dg, OpId op) const
{
    const graph::DynOpInfo &di = dg.info(op);
    if (!di.dynamic)
        return dg.graph().node(op).dims.n();
    ADYNA_ASSERT(di.switchSlot < outcomes.size() &&
                     outcomes[di.switchSlot].first == di.ownerSwitch,
                 "no routing outcome for switch ", di.ownerSwitch,
                 " needed by op ", op);
    const SwitchOutcome &oc = outcomes[di.switchSlot].second;
    if (di.branch >= 0) {
        ADYNA_ASSERT(static_cast<std::size_t>(di.branch) <
                         oc.branchCounts.size(),
                     "branch out of range");
        return oc.branchCounts[di.branch];
    }
    return oc.activeAfter;
}

const SwitchOutcome &
BatchRouting::outcome(OpId switch_op) const
{
    const auto it = std::lower_bound(
        outcomes.begin(), outcomes.end(), switch_op,
        [](const auto &entry, OpId id) { return entry.first < id; });
    ADYNA_ASSERT(it != outcomes.end() && it->first == switch_op,
                 "no routing outcome for switch ", switch_op);
    return it->second;
}

BatchRouting
mergeRoutings(const std::vector<const BatchRouting *> &parts)
{
    ADYNA_ASSERT(!parts.empty(), "cannot merge zero routings");
    BatchRouting out = *parts.front();
    for (std::size_t p = 1; p < parts.size(); ++p) {
        const auto &outcomes = parts[p]->outcomes;
        ADYNA_ASSERT(outcomes.size() == out.outcomes.size(),
                     "routings cover different switch sets");
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const auto &[sw, oc] = outcomes[i];
            auto &[dstSw, dst] = out.outcomes[i];
            ADYNA_ASSERT(sw == dstSw,
                         "routings cover different switch sets");
            ADYNA_ASSERT(dst.branchCounts.size() ==
                             oc.branchCounts.size(),
                         "routings disagree on the branch count of "
                         "switch ",
                         sw);
            for (std::size_t b = 0; b < oc.branchCounts.size(); ++b)
                dst.branchCounts[b] += oc.branchCounts[b];
            dst.activeAfter += oc.activeAfter;
            dst.activeBefore += oc.activeBefore;
        }
    }
    return out;
}

std::int64_t
totalDynLoad(const graph::DynGraph &dg, const BatchRouting &routing)
{
    std::int64_t total = 0;
    for (OpId op : dg.dynamicOps())
        total += routing.dynValue(dg, op);
    return total;
}

TraceGenerator::TraceGenerator(const graph::DynGraph &dg, TraceConfig cfg,
                               std::uint64_t seed)
    : dg_(dg), cfg_(cfg), rng_(seed)
{
    ADYNA_ASSERT(cfg_.batchSize > 0, "batch size must be positive");
}

double
TraceGenerator::drawDifficulty()
{
    double d = rng_.beta(cfg_.difficultyAlpha, cfg_.difficultyBeta);
    return std::clamp(d, 0.0, 1.0);
}

void
TraceGenerator::maybeAdvancePhase()
{
    if (cfg_.driftStrength <= 0.0 || cfg_.driftPeriod <= 0)
        return;
    if (batches_ % static_cast<std::uint64_t>(cfg_.driftPeriod) != 0)
        return;
    // New phase: rescale gate marginals and redraw expert popularity.
    phaseScale_ =
        1.0 + cfg_.driftStrength * rng_.uniform(-0.5, 0.5);
    phaseExpertTilt_.clear();
}

double
TraceGenerator::phaseFraction(double base) const
{
    return std::clamp(base * phaseScale_, 0.0, 1.0);
}

BatchRouting
TraceGenerator::next()
{
    maybeAdvancePhase();
    ++batches_;

    samples_.assign(static_cast<std::size_t>(cfg_.batchSize), Sample{});
    for (Sample &s : samples_)
        s.difficulty = drawDifficulty();

    BatchRouting out;
    out.outcomes.resize(dg_.switches().size());
    for (const SwitchInfo &sw : dg_.switches())
        routeSwitch(sw, out);
    return out;
}

void
TraceGenerator::selectEasiest(std::size_t n)
{
    // Pairs are unique by sample index, so the n smallest are one set
    // whatever the method.
    if (n > 0 && n < ranked_.size())
        std::nth_element(ranked_.begin(),
                         ranked_.begin() + static_cast<std::ptrdiff_t>(n),
                         ranked_.end());
}

void
TraceGenerator::routeSwitch(const SwitchInfo &sw, BatchRouting &out)
{
    const graph::OpNode &node = dg_.graph().node(sw.switchOp);
    const RoutingPolicy &policy = node.policy;

    SwitchOutcome oc;
    oc.branchCounts.assign(
        static_cast<std::size_t>(policy.numBranches), 0);

    // Rows of the batch dimension per routed unit (token folding).
    const std::int64_t units = std::max<std::int64_t>(
        policy.unitsPerSample, 1);
    // Rows one sample contributes at this gate (its patch-select
    // multiplicity times the gate's token fold).
    const auto effRows = [&](std::size_t i) {
        return samples_[i].rows * units;
    };

    // Rank the active samples by difficulty with per-gate jitter, so
    // rank-based decisions correlate across gates through the shared
    // latent difficulty while retaining batch-to-batch variety. Every
    // gate draws the jitter; a TopKExperts gate reads no rank, so it
    // only steps its stream past the draws.
    const bool ranks = policy.kind != RoutingPolicy::Kind::TopKExperts;
    ranked_.clear();
    std::size_t active = 0;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        if (!samples_[i].active)
            continue;
        oc.activeBefore += effRows(i);
        ++active;
        if (ranks)
            ranked_.emplace_back(samples_[i].difficulty +
                                     rng_.normal(0.0, cfg_.gateNoise),
                                 i);
    }
    if (!ranks)
        rng_.skipNormals(active);

    switch (policy.kind) {
      case RoutingPolicy::Kind::EarlyExit: {
        // param = marginal exit fraction of the *original* batch.
        const double f = phaseFraction(policy.param);
        std::int64_t target = rng_.binomial(
            static_cast<std::uint32_t>(cfg_.batchSize), f);
        target = std::min<std::int64_t>(
            target, static_cast<std::int64_t>(ranked_.size()));
        selectEasiest(static_cast<std::size_t>(target));
        for (std::int64_t i = 0; i < target; ++i) {
            const std::size_t idx =
                ranked_[static_cast<std::size_t>(i)].second;
            oc.branchCounts[0] += effRows(idx); // exit via the sink
            samples_[idx].active = false;
        }
        oc.branchCounts[1] = oc.activeBefore - oc.branchCounts[0];
        oc.activeAfter = oc.branchCounts[1];
        break;
      }
      case RoutingPolicy::Kind::LayerSkip: {
        // param = skip fraction of the samples reaching this gate.
        const double f = phaseFraction(policy.param);
        std::int64_t target = rng_.binomial(
            static_cast<std::uint32_t>(ranked_.size()), f);
        selectEasiest(static_cast<std::size_t>(target));
        for (std::int64_t i = 0; i < target; ++i)
            oc.branchCounts[0] += // easiest samples skip
                effRows(ranked_[static_cast<std::size_t>(i)].second);
        oc.branchCounts[1] = oc.activeBefore - oc.branchCounts[0];
        oc.activeAfter = oc.activeBefore; // merge restores the batch
        break;
      }
      case RoutingPolicy::Kind::TopKExperts: {
        if (phaseExpertTilt_.size() !=
            static_cast<std::size_t>(policy.numBranches)) {
            // (Re)draw per-phase expert popularity tilts.
            phaseExpertTilt_.resize(
                static_cast<std::size_t>(policy.numBranches));
            for (double &t : phaseExpertTilt_)
                t = std::exp(cfg_.driftStrength * rng_.normal());
        }
        std::vector<double> &weights = expertWeights_;
        weights.assign(static_cast<std::size_t>(policy.numBranches),
                       1.0);
        for (std::size_t e = 0; e < weights.size(); ++e) {
            if (e < policy.branchBias.size())
                weights[e] = policy.branchBias[e];
            weights[e] *= phaseExpertTilt_[e];
        }
        // Units (tokens) route independently, each to topK
        // *distinct* experts. Small populations are sampled exactly
        // per unit; large ones use a binomial-chain multinomial per
        // choice round with a clamp-and-redistribute pass that
        // restores the no-expert-exceeds-the-population invariant.
        const std::int64_t totalUnits = oc.activeBefore;
        if (totalUnits <= 2048) {
            topK_.reset(weights, static_cast<std::size_t>(policy.topK));
            for (std::int64_t u = 0; u < totalUnits; ++u)
                for (std::size_t e : topK_.draw(rng_))
                    ++oc.branchCounts[e];
        } else {
            for (int choice = 0; choice < policy.topK; ++choice) {
                double wsum = 0.0;
                for (double w : weights)
                    wsum += w;
                std::int64_t remaining = totalUnits;
                for (std::size_t e = 0; e < weights.size(); ++e) {
                    if (remaining <= 0)
                        break;
                    const double p =
                        wsum > 0.0 ? weights[e] / wsum : 0.0;
                    std::int64_t c;
                    if (e + 1 == weights.size()) {
                        c = remaining;
                    } else {
                        c = rng_.binomial(
                            static_cast<std::uint32_t>(remaining),
                            std::clamp(p, 0.0, 1.0));
                    }
                    oc.branchCounts[e] += c;
                    remaining -= c;
                    wsum -= weights[e];
                }
            }
            // No expert can serve more units than exist: move the
            // excess to the least-loaded experts.
            for (std::size_t e = 0; e < oc.branchCounts.size(); ++e) {
                std::int64_t excess =
                    oc.branchCounts[e] - totalUnits;
                while (excess > 0) {
                    const auto it = std::min_element(
                        oc.branchCounts.begin(),
                        oc.branchCounts.end());
                    const std::int64_t room = totalUnits - *it;
                    const std::int64_t move =
                        std::min(excess, std::max<std::int64_t>(
                                             room, 1));
                    *it += move;
                    oc.branchCounts[e] -= move;
                    excess -= move;
                }
            }
        }
        oc.activeAfter = oc.activeBefore;
        break;
      }
      case RoutingPolicy::Kind::ChannelBlocks: {
        const int blocks = policy.numBranches;
        // FBS keeps the top-k most salient channels, and the
        // saliency ranking is largely consistent across samples: a
        // sample keeping k blocks activates the first k of the
        // popularity order (with a rare swap further down,
        // controlled by channelSwapProb). The tail blocks therefore only
        // light up for the hardest samples -- the rarely-executed
        // branches that motivate branch grouping (Section V-B).
        const double keep = phaseFraction(policy.param);
        const double swapProb = cfg_.channelSwapProb;
        std::sort(ranked_.begin(), ranked_.end());
        for (const auto &[difficulty, idx] : ranked_) {
            // Harder samples keep more channel blocks.
            const double frac = std::clamp(
                keep + (difficulty - 0.5) * 0.5 +
                    rng_.normal(0.0, cfg_.gateNoise),
                0.0, 1.0);
            std::int64_t k = std::llround(frac * blocks);
            k = std::clamp<std::int64_t>(k, 1, blocks);
            for (std::int64_t b = 0; b < k; ++b)
                oc.branchCounts[static_cast<std::size_t>(b)] +=
                    effRows(idx);
            // Occasional off-ranking pick: swap the last kept block
            // for a random tail block.
            if (k < blocks && rng_.bernoulli(swapProb)) {
                const std::int64_t tail =
                    rng_.uniformInt(k, blocks - 1);
                oc.branchCounts[static_cast<std::size_t>(tail)] +=
                    effRows(idx);
                oc.branchCounts[static_cast<std::size_t>(k - 1)] -=
                    effRows(idx);
            }
        }
        oc.activeAfter = oc.activeBefore;
        break;
      }
      case RoutingPolicy::Kind::PatchSelect: {
        // Units here are folded rows: `fold` patches per sample.
        // Kept rows continue on branch 0, dropped rows sink on
        // branch 1. Downstream gates see the per-sample kept counts
        // through Sample::rows. Nested patch selection is not
        // modelled.
        const std::int64_t fold =
            units > 1 ? units
                      : node.dims.n() /
                            std::max<std::int64_t>(cfg_.batchSize, 1);
        ADYNA_ASSERT(fold >= 1, "patch-select switch on unfolded batch");
        const double keep = phaseFraction(policy.param);
        std::sort(ranked_.begin(), ranked_.end());
        for (const auto &[difficulty, idx] : ranked_) {
            ADYNA_ASSERT(samples_[idx].rows == 1,
                         "nested patch selection is not supported");
            // Harder images need more patches.
            const double frac = std::clamp(
                keep + (difficulty - 0.5) * cfg_.patchSpread +
                    rng_.normal(0.0, cfg_.gateNoise),
                0.0, 1.0);
            std::int64_t k = std::llround(frac * fold);
            k = std::clamp<std::int64_t>(k, 1, fold);
            samples_[idx].rows = k;
            oc.branchCounts[0] += k;
        }
        const std::int64_t totalRows =
            static_cast<std::int64_t>(ranked_.size()) * fold;
        oc.branchCounts[1] = totalRows - oc.branchCounts[0];
        oc.activeBefore = totalRows;
        oc.activeAfter = oc.branchCounts[0];
        break;
      }
    }

    out.outcomes[sw.slot] = {sw.switchOp, std::move(oc)};
}

} // namespace adyna::trace
