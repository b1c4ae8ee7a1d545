#include "serve/arrival.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace adyna::serve {

ArrivalProcess::ArrivalProcess(ArrivalConfig cfg, double freq_ghz,
                               std::uint64_t seed)
    : cfg_(std::move(cfg)), freqGhz_(freq_ghz), rng_(seed)
{
    ADYNA_ASSERT(freqGhz_ > 0.0, "bad clock frequency");
    switch (cfg_.kind) {
      case ArrivalKind::Poisson:
        ADYNA_ASSERT(cfg_.ratePerSec > 0.0,
                     "arrival rate must be positive");
        break;
      case ArrivalKind::Bursty: {
        ADYNA_ASSERT(cfg_.ratePerSec > 0.0,
                     "arrival rate must be positive");
        ADYNA_ASSERT(cfg_.burstRateMultiplier >= 1.0,
                     "burst multiplier must be >= 1");
        ADYNA_ASSERT(cfg_.burstFraction > 0.0 &&
                         cfg_.burstFraction < 1.0,
                     "burst fraction must be in (0, 1)");
        ADYNA_ASSERT(cfg_.burstDwellSec > 0.0,
                     "burst dwell must be positive");
        // Split the mean rate so that
        //   rate = normal * (1 - f) + normal * mult * f.
        normalRate_ =
            cfg_.ratePerSec /
            (1.0 - cfg_.burstFraction +
             cfg_.burstRateMultiplier * cfg_.burstFraction);
        // Start in the normal state with an exponential dwell.
        stateEndSec_ = expDraw(
            cfg_.burstFraction /
            (cfg_.burstDwellSec * (1.0 - cfg_.burstFraction)));
        break;
      }
      case ArrivalKind::Replay:
        replaySec_ = loadArrivalTrace(cfg_.traceFile);
        ADYNA_ASSERT(!replaySec_.empty(),
                     "empty arrival trace: ", cfg_.traceFile);
        break;
    }
}

double
ArrivalProcess::expDraw(double rate_per_sec)
{
    // Inverse-CDF draw; 1 - uniform() is in (0, 1].
    return -std::log(1.0 - rng_.uniform()) / rate_per_sec;
}

Tick
ArrivalProcess::next()
{
    switch (cfg_.kind) {
      case ArrivalKind::Poisson:
        nowSec_ += expDraw(cfg_.ratePerSec);
        break;
      case ArrivalKind::Bursty: {
        // By memorylessness, re-drawing the inter-arrival after a
        // state switch is exact, not an approximation.
        for (;;) {
            const double rate =
                inBurst_ ? normalRate_ * cfg_.burstRateMultiplier
                         : normalRate_;
            const double dt = expDraw(rate);
            if (nowSec_ + dt <= stateEndSec_) {
                nowSec_ += dt;
                break;
            }
            nowSec_ = stateEndSec_;
            inBurst_ = !inBurst_;
            const double meanDwell =
                inBurst_ ? cfg_.burstDwellSec
                         : cfg_.burstDwellSec *
                               (1.0 - cfg_.burstFraction) /
                               cfg_.burstFraction;
            stateEndSec_ = nowSec_ + expDraw(1.0 / meanDwell);
        }
        break;
      }
      case ArrivalKind::Replay: {
        if (replayCursor_ == replaySec_.size()) {
            // Wrap: shift the whole trace by its span (plus one mean
            // gap so back-to-back copies do not collide).
            const double span = replaySec_.back() - replaySec_.front();
            const double gap =
                replaySec_.size() > 1
                    ? span / static_cast<double>(replaySec_.size() - 1)
                    : 1e-6;
            replayOffsetSec_ += span + gap;
            replayCursor_ = 0;
        }
        const double t = replayOffsetSec_ + replaySec_[replayCursor_] -
                         replaySec_.front();
        ++replayCursor_;
        nowSec_ = std::max(nowSec_, t);
        break;
      }
    }
    ++generated_;
    return static_cast<Tick>(
        std::llround(nowSec_ * freqGhz_ * 1e9));
}

std::vector<double>
loadArrivalTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        ADYNA_FATAL("cannot open arrival trace: ", path);
    std::vector<double> out;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream ls(line);
        double t = 0.0;
        if (!(ls >> t))
            ADYNA_FATAL("bad arrival timestamp at ", path, ":",
                        lineNo, ": '", line, "'");
        if (t < 0.0 || (!out.empty() && t < out.back()))
            ADYNA_FATAL("arrival trace not ascending at ", path, ":",
                        lineNo);
        out.push_back(t);
    }
    return out;
}

void
saveArrivalTrace(const std::string &path,
                 const std::vector<double> &timestamps_sec)
{
    std::ofstream out(path);
    if (!out)
        ADYNA_FATAL("cannot write arrival trace: ", path);
    out << "# adyna-arrivals v1: one ascending timestamp (seconds) "
           "per line\n";
    char buf[64];
    for (double t : timestamps_sec) {
        std::snprintf(buf, sizeof(buf), "%.9f\n", t);
        out << buf;
    }
}

} // namespace adyna::serve
