#include "fault/fault.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <tuple>

#include "common/logging.hh"
#include "common/rng.hh"

namespace adyna::fault {

namespace {

constexpr Tick kForever = std::numeric_limits<Tick>::max();

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s[0] == '-')
        return false;
    out = v;
    return true;
}

bool
parseF64(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

bool
parseDir(const std::string &s, int &out)
{
    if (s.size() != 1)
        return false;
    switch (s[0]) {
      case 'E':
        out = arch::kLinkEast;
        return true;
      case 'W':
        out = arch::kLinkWest;
        return true;
      case 'S':
        out = arch::kLinkSouth;
        return true;
      case 'N':
        out = arch::kLinkNorth;
        return true;
      default:
        return false;
    }
}

char
dirLetter(int dir)
{
    switch (dir) {
      case arch::kLinkEast:
        return 'E';
      case arch::kLinkWest:
        return 'W';
      case arch::kLinkSouth:
        return 'S';
      default:
        return 'N';
    }
}

bool
kindFromName(const std::string &name, FaultKind &out)
{
    if (name == "tile_fail")
        out = FaultKind::TileFail;
    else if (name == "link_down")
        out = FaultKind::LinkDown;
    else if (name == "link_degrade")
        out = FaultKind::LinkDegrade;
    else if (name == "probe_drop")
        out = FaultKind::ProbeDrop;
    else if (name == "store_fit_fail")
        out = FaultKind::StoreFitFail;
    else if (name == "chip_fail")
        out = FaultKind::ChipFail;
    else if (name == "chip_slow")
        out = FaultKind::ChipSlow;
    else if (name == "link_flaky")
        out = FaultKind::LinkFlaky;
    else if (name == "payload_corrupt")
        out = FaultKind::PayloadCorrupt;
    else
        return false;
    return true;
}

/** Split @p text on @p sep, trimming each piece. */
std::vector<std::string>
splitTrim(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        const auto end = text.find(sep, begin);
        const auto stop = end == std::string::npos ? text.size() : end;
        out.push_back(trim(text.substr(begin, stop - begin)));
        if (end == std::string::npos)
            break;
        begin = end + 1;
    }
    return out;
}

bool
parseEvent(const std::string &text, FaultEvent &ev, std::string &err)
{
    const auto atPos = text.find('@');
    if (atPos == std::string::npos) {
        err = "missing '@tick' in '" + text + "'";
        return false;
    }
    const std::string kindName = trim(text.substr(0, atPos));
    if (!kindFromName(kindName, ev.kind)) {
        err = "unknown fault kind '" + kindName + "'";
        return false;
    }
    const auto colon = text.find(':', atPos);
    const std::string tickStr = trim(
        text.substr(atPos + 1, (colon == std::string::npos
                                    ? text.size()
                                    : colon) -
                                   atPos - 1));
    if (!parseU64(tickStr, ev.at)) {
        err = "bad tick '" + tickStr + "' in '" + text + "'";
        return false;
    }

    // Bit per key so per-kind validation below can both require and
    // reject keys; rejecting stray keys keeps every accepted event
    // round-trippable through its canonical str() text.
    enum KeyBit {
        kKeyTile = 1 << 0,
        kKeyDir = 1 << 1,
        kKeyFactor = 1 << 2,
        kKeyProb = 1 << 3,
        kKeyDuration = 1 << 4,
        kKeyChip = 1 << 5,
        kKeyHeal = 1 << 6,
    };
    int seen = 0;
    if (colon != std::string::npos) {
        for (const std::string &kv :
             splitTrim(text.substr(colon + 1), ',')) {
            if (kv.empty()) {
                err = "empty key=value in '" + text + "'";
                return false;
            }
            const auto eq = kv.find('=');
            if (eq == std::string::npos) {
                err = "missing '=' in '" + kv + "'";
                return false;
            }
            const std::string key = trim(kv.substr(0, eq));
            const std::string val = trim(kv.substr(eq + 1));
            if (key == "tile") {
                std::uint64_t t = 0;
                if (!parseU64(val, t) ||
                    t > std::numeric_limits<TileId>::max()) {
                    err = "bad tile '" + val + "'";
                    return false;
                }
                ev.tile = static_cast<TileId>(t);
                seen |= kKeyTile;
            } else if (key == "dir") {
                if (!parseDir(val, ev.dir)) {
                    err = "bad dir '" + val + "' (want E|W|S|N)";
                    return false;
                }
                seen |= kKeyDir;
            } else if (key == "factor" || key == "prob") {
                if (!parseF64(val, ev.factor)) {
                    err = "bad " + key + " '" + val + "'";
                    return false;
                }
                seen |= key == "factor" ? kKeyFactor : kKeyProb;
            } else if (key == "duration") {
                if (!parseU64(val, ev.duration)) {
                    err = "bad duration '" + val + "'";
                    return false;
                }
                seen |= kKeyDuration;
            } else if (key == "chip") {
                std::uint64_t c = 0;
                if (!parseU64(val, c) ||
                    c > static_cast<std::uint64_t>(
                            std::numeric_limits<int>::max())) {
                    err = "bad chip '" + val + "'";
                    return false;
                }
                ev.chip = static_cast<int>(c);
                seen |= kKeyChip;
            } else if (key == "heal") {
                if (!parseU64(val, ev.duration)) {
                    err = "bad heal '" + val + "'";
                    return false;
                }
                seen |= kKeyHeal;
            } else {
                err = "unknown key '" + key + "' in '" + text + "'";
                return false;
            }
        }
    }

    int required = 0;
    int allowed = kKeyDuration;
    switch (ev.kind) {
      case FaultKind::TileFail:
        required = kKeyTile;
        break;
      case FaultKind::LinkDown:
        required = kKeyTile | kKeyDir;
        break;
      case FaultKind::LinkDegrade:
        required = kKeyTile | kKeyDir | kKeyFactor;
        break;
      case FaultKind::ProbeDrop:
        required = kKeyProb;
        break;
      case FaultKind::StoreFitFail:
        break;
      case FaultKind::ChipFail:
        required = kKeyChip;
        allowed = kKeyHeal;
        break;
      case FaultKind::ChipSlow:
        required = kKeyChip | kKeyFactor;
        allowed = kKeyHeal;
        break;
      case FaultKind::LinkFlaky:
        required = kKeyChip | kKeyProb;
        allowed = kKeyHeal;
        break;
      case FaultKind::PayloadCorrupt:
        required = kKeyProb;
        allowed = kKeyHeal;
        break;
    }
    allowed |= required;
    if (const int stray = seen & ~allowed) {
        static const struct
        {
            int bit;
            const char *name;
        } kKeys[] = {{kKeyTile, "tile"},         {kKeyDir, "dir"},
                     {kKeyFactor, "factor"},     {kKeyProb, "prob"},
                     {kKeyDuration, "duration"}, {kKeyChip, "chip"},
                     {kKeyHeal, "heal"}};
        for (const auto &k : kKeys)
            if (stray & k.bit) {
                err = std::string("key '") + k.name +
                      "=' not valid for " + faultKindName(ev.kind);
                return false;
            }
    }
    if (const int missing = required & ~seen) {
        switch (ev.kind) {
          case FaultKind::TileFail:
            err = "tile_fail needs tile=";
            break;
          case FaultKind::LinkDown:
            err = "link_down needs tile= and dir=";
            break;
          case FaultKind::LinkDegrade:
            err = "link_degrade needs tile=, dir= and factor=";
            break;
          case FaultKind::ProbeDrop:
            err = "probe_drop needs prob=";
            break;
          case FaultKind::ChipSlow:
            err = "chip_slow needs chip= and factor=";
            break;
          case FaultKind::LinkFlaky:
            err = "link_flaky needs chip= and prob=";
            break;
          case FaultKind::PayloadCorrupt:
            err = "payload_corrupt needs prob=";
            break;
          default:
            err = "chip_fail needs chip=";
            break;
        }
        (void)missing;
        return false;
    }
    if (ev.kind == FaultKind::LinkDegrade &&
        !(ev.factor > 0.0 && ev.factor < 1.0)) {
        err = "link_degrade factor must be in (0, 1)";
        return false;
    }
    if (ev.kind == FaultKind::ProbeDrop &&
        !(ev.factor > 0.0 && ev.factor <= 1.0)) {
        err = "probe_drop prob must be in (0, 1]";
        return false;
    }
    if (ev.kind == FaultKind::ChipSlow && !(ev.factor > 1.0)) {
        err = "chip_slow factor must be > 1";
        return false;
    }
    // Retransmits loop until a clean attempt, so a certain fault
    // (prob=1) would never deliver; keep the open interval.
    if ((ev.kind == FaultKind::LinkFlaky ||
         ev.kind == FaultKind::PayloadCorrupt) &&
        !(ev.factor > 0.0 && ev.factor < 1.0)) {
        err = std::string(faultKindName(ev.kind)) +
              " prob must be in (0, 1)";
        return false;
    }
    return true;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TileFail:
        return "tile_fail";
      case FaultKind::LinkDown:
        return "link_down";
      case FaultKind::LinkDegrade:
        return "link_degrade";
      case FaultKind::ProbeDrop:
        return "probe_drop";
      case FaultKind::StoreFitFail:
        return "store_fit_fail";
      case FaultKind::ChipSlow:
        return "chip_slow";
      case FaultKind::LinkFlaky:
        return "link_flaky";
      case FaultKind::PayloadCorrupt:
        return "payload_corrupt";
      default:
        return "chip_fail";
    }
}

bool
podScopeFault(FaultKind kind)
{
    switch (kind) {
      case FaultKind::ChipFail:
      case FaultKind::ChipSlow:
      case FaultKind::LinkFlaky:
      case FaultKind::PayloadCorrupt:
        return true;
      default:
        return false;
    }
}

void
FaultPlan::normalize()
{
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return std::tuple(a.at,
                                           static_cast<int>(a.kind),
                                           a.tile, a.dir, a.chip) <
                                std::tuple(b.at,
                                           static_cast<int>(b.kind),
                                           b.tile, b.dir, b.chip);
                     });
}

std::string
FaultPlan::str() const
{
    std::string out;
    char buf[160];
    for (const FaultEvent &ev : events) {
        if (!out.empty())
            out += ';';
        out += faultKindName(ev.kind);
        std::snprintf(buf, sizeof(buf), "@%llu",
                      static_cast<unsigned long long>(ev.at));
        out += buf;
        std::string args;
        switch (ev.kind) {
          case FaultKind::TileFail:
            std::snprintf(buf, sizeof(buf), "tile=%u", ev.tile);
            args = buf;
            break;
          case FaultKind::LinkDown:
            std::snprintf(buf, sizeof(buf), "tile=%u,dir=%c",
                          ev.tile, dirLetter(ev.dir));
            args = buf;
            break;
          case FaultKind::LinkDegrade:
            std::snprintf(buf, sizeof(buf),
                          "tile=%u,dir=%c,factor=%.17g", ev.tile,
                          dirLetter(ev.dir), ev.factor);
            args = buf;
            break;
          case FaultKind::ProbeDrop:
            std::snprintf(buf, sizeof(buf), "prob=%.17g", ev.factor);
            args = buf;
            break;
          case FaultKind::StoreFitFail:
            break;
          case FaultKind::ChipFail:
            // Pod-scope kinds spell their heal tick `heal=`, not
            // `duration=`, so they skip the generic append below.
            std::snprintf(buf, sizeof(buf), "chip=%d", ev.chip);
            args = buf;
            break;
          case FaultKind::ChipSlow:
            std::snprintf(buf, sizeof(buf), "chip=%d,factor=%.17g",
                          ev.chip, ev.factor);
            args = buf;
            break;
          case FaultKind::LinkFlaky:
            std::snprintf(buf, sizeof(buf), "chip=%d,prob=%.17g",
                          ev.chip, ev.factor);
            args = buf;
            break;
          case FaultKind::PayloadCorrupt:
            std::snprintf(buf, sizeof(buf), "prob=%.17g", ev.factor);
            args = buf;
            break;
        }
        if (ev.duration > 0 && podScopeFault(ev.kind)) {
            std::snprintf(buf, sizeof(buf), "%sheal=%llu",
                          args.empty() ? "" : ",",
                          static_cast<unsigned long long>(
                              ev.duration));
            args += buf;
        }
        if (ev.duration > 0 && !podScopeFault(ev.kind)) {
            std::snprintf(buf, sizeof(buf), "%sduration=%llu",
                          args.empty() ? "" : ",",
                          static_cast<unsigned long long>(
                              ev.duration));
            args += buf;
        }
        if (!args.empty()) {
            out += ':';
            out += args;
        }
    }
    return out;
}

bool
parseFaultPlan(const std::string &text, FaultPlan &plan,
               std::string *error)
{
    FaultPlan out;
    const std::string body = trim(text);
    if (!body.empty()) {
        for (const std::string &piece : splitTrim(body, ';')) {
            if (piece.empty())
                continue; // tolerate trailing / doubled ';'
            FaultEvent ev;
            std::string err;
            if (!parseEvent(piece, ev, err)) {
                if (error)
                    *error = err;
                return false;
            }
            out.events.push_back(ev);
        }
    }
    out.normalize();
    plan = std::move(out);
    return true;
}

FaultPlan
parseFaultPlanOrDie(const std::string &text)
{
    FaultPlan plan;
    std::string error;
    if (!parseFaultPlan(text, plan, &error))
        ADYNA_FATAL("bad fault plan: ", error);
    return plan;
}

FaultPlan
randomFaultPlan(const RandomFaultConfig &cfg, std::uint64_t seed)
{
    ADYNA_ASSERT(cfg.horizon > 0, "fault horizon must be > 0");
    ADYNA_ASSERT(cfg.gridRows > 0 && cfg.gridCols > 0, "bad grid");
    Rng rng(seed);
    const auto tiles =
        static_cast<std::int64_t>(cfg.gridRows) * cfg.gridCols;
    const auto h = static_cast<std::int64_t>(cfg.horizon);
    const auto strikeTick = [&] {
        return static_cast<Tick>(rng.uniformInt(h / 10, h * 8 / 10));
    };
    const auto transientTicks = [&]() -> Tick {
        if (!rng.bernoulli(cfg.transientFraction))
            return 0;
        return static_cast<Tick>(
            rng.uniformInt(std::max<std::int64_t>(h / 20, 1),
                           std::max<std::int64_t>(h / 5, 2)));
    };

    FaultPlan plan;
    for (int i = 0; i < cfg.tileFails; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::TileFail;
        ev.at = strikeTick();
        ev.tile = static_cast<TileId>(rng.uniformInt(0, tiles - 1));
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    for (int i = 0; i < cfg.linkDowns; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::LinkDown;
        ev.at = strikeTick();
        ev.tile = static_cast<TileId>(rng.uniformInt(0, tiles - 1));
        ev.dir = static_cast<int>(rng.uniformInt(0, 3));
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    for (int i = 0; i < cfg.linkDegrades; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::LinkDegrade;
        ev.at = strikeTick();
        ev.tile = static_cast<TileId>(rng.uniformInt(0, tiles - 1));
        ev.dir = static_cast<int>(rng.uniformInt(0, 3));
        ev.factor = rng.uniform(0.2, 0.9);
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    for (int i = 0; i < cfg.probeDropWindows; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::ProbeDrop;
        ev.at = strikeTick();
        ev.factor = rng.uniform(0.05, 0.5);
        // Probe-drop windows are always bounded: a permanent drop
        // storm models a dead chip, not a degraded one.
        ev.duration = static_cast<Tick>(
            rng.uniformInt(std::max<std::int64_t>(h / 20, 1),
                           std::max<std::int64_t>(h / 4, 2)));
        plan.events.push_back(ev);
    }
    for (int i = 0; i < cfg.storeFitWindows; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::StoreFitFail;
        ev.at = strikeTick();
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    if (cfg.chipFails > 0 || cfg.chipSlows > 0 ||
        cfg.linkFlakies > 0)
        ADYNA_ASSERT(cfg.podChips > 0, "bad pod size");
    for (int i = 0; i < cfg.chipFails; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::ChipFail;
        ev.at = strikeTick();
        ev.chip = static_cast<int>(
            rng.uniformInt(0, cfg.podChips - 1));
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    for (int i = 0; i < cfg.chipSlows; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::ChipSlow;
        ev.at = strikeTick();
        ev.chip = static_cast<int>(
            rng.uniformInt(0, cfg.podChips - 1));
        ev.factor = rng.uniform(2.0, 8.0);
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    for (int i = 0; i < cfg.linkFlakies; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::LinkFlaky;
        ev.at = strikeTick();
        ev.chip = static_cast<int>(
            rng.uniformInt(0, cfg.podChips - 1));
        ev.factor = rng.uniform(0.05, 0.5);
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    for (int i = 0; i < cfg.payloadCorrupts; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::PayloadCorrupt;
        ev.at = strikeTick();
        ev.factor = rng.uniform(0.01, 0.3);
        ev.duration = transientTicks();
        plan.events.push_back(ev);
    }
    plan.normalize();
    return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed)
{
    plan_.normalize();
    for (const FaultEvent &ev : plan_.events) {
        if (podScopeFault(ev.kind))
            ADYNA_FATAL(faultKindName(ev.kind),
                        " is a pod-scope fault, which a single chip "
                        "cannot replay: put it into "
                        "PodConfig::faultPlan");
        timeline_.push_back({ev, ev.at, false});
        if (ev.duration > 0 && ev.at <= kForever - ev.duration)
            timeline_.push_back({ev, ev.at + ev.duration, true});
        if (ev.kind == FaultKind::StoreFitFail) {
            const Tick end = ev.duration > 0 &&
                                     ev.at <= kForever - ev.duration
                                 ? ev.at + ev.duration
                                 : kForever;
            storeFitSpans_.emplace_back(ev.at, end);
        }
    }
    // Strikes before heals at equal ticks, otherwise by time.
    std::stable_sort(timeline_.begin(), timeline_.end(),
                     [](const TimedEvent &a, const TimedEvent &b) {
                         return std::tuple(a.at, a.recover) <
                                std::tuple(b.at, b.recover);
                     });
}

void
FaultInjector::apply(const TimedEvent &te, arch::Chip &chip,
                     bool &healthy_changed)
{
    const FaultEvent &ev = te.event;
    const int tiles = chip.config().tiles();
    switch (ev.kind) {
      case FaultKind::TileFail:
        if (static_cast<int>(ev.tile) >= tiles)
            ADYNA_FATAL("fault plan targets tile ", ev.tile,
                        " on a ", tiles, "-tile chip");
        if (te.recover) {
            chip.recoverTile(ev.tile);
            ++stats_.tileRecoveries;
        } else {
            chip.failTile(ev.tile);
            ++stats_.tileFailEvents;
        }
        changedTiles_.push_back(ev.tile);
        healthy_changed = true;
        break;
      case FaultKind::LinkDown:
        if (static_cast<int>(ev.tile) >= tiles)
            ADYNA_FATAL("fault plan targets tile ", ev.tile,
                        " on a ", tiles, "-tile chip");
        chip.noc().setLinkDown(ev.tile, ev.dir, !te.recover);
        if (te.recover)
            ++stats_.linkRecoveries;
        else
            ++stats_.linkDownEvents;
        break;
      case FaultKind::LinkDegrade:
        if (static_cast<int>(ev.tile) >= tiles)
            ADYNA_FATAL("fault plan targets tile ", ev.tile,
                        " on a ", tiles, "-tile chip");
        chip.noc().setLinkBandwidthFactor(
            ev.tile, ev.dir, te.recover ? 1.0 : ev.factor);
        if (te.recover)
            ++stats_.linkRecoveries;
        else
            ++stats_.linkDegradeEvents;
        break;
      case FaultKind::ProbeDrop:
        if (te.recover) {
            chip.noc().setProbeDropWindow(0.0, 0, 0);
        } else {
            const Tick until =
                ev.duration > 0 && ev.at <= kForever - ev.duration
                    ? ev.at + ev.duration
                    : kForever;
            chip.noc().setProbeDropWindow(
                ev.factor, until,
                seed_ ^ (ev.at * 0x9e3779b97f4a7c15ULL) ^
                    0xd1b54a32d192ed03ULL);
            ++stats_.probeDropWindows;
        }
        break;
      case FaultKind::StoreFitFail:
        if (!te.recover)
            ++stats_.storeFitWindows;
        break;
      case FaultKind::ChipFail:
      case FaultKind::ChipSlow:
      case FaultKind::LinkFlaky:
      case FaultKind::PayloadCorrupt:
        // Pod scope: the constructor rejects these.
        break;
    }
}

bool
FaultInjector::advanceTo(Tick now, arch::Chip &chip)
{
    bool healthyChanged = false;
    changedTiles_.clear();
    while (cursor_ < timeline_.size() &&
           timeline_[cursor_].at <= now) {
        apply(timeline_[cursor_], chip, healthyChanged);
        ++cursor_;
    }
    std::sort(changedTiles_.begin(), changedTiles_.end());
    changedTiles_.erase(
        std::unique(changedTiles_.begin(), changedTiles_.end()),
        changedTiles_.end());
    return healthyChanged;
}

bool
FaultInjector::storeFitFailActive(Tick now) const
{
    for (const auto &[start, end] : storeFitSpans_)
        if (now >= start && now < end)
            return true;
    return false;
}

FaultStats
FaultInjector::stats(const arch::Chip &chip) const
{
    FaultStats out = stats_;
    out.failedTiles = chip.failedTileCount();
    const arch::Noc &noc = chip.noc();
    out.downLinks = noc.downLinks();
    out.degradedLinks = noc.degradedLinks();
    out.probeDrops = noc.probeDrops();
    out.probeRetries = noc.probeRetries();
    out.probeGiveUps = noc.probeGiveUps();
    out.detourRoutes = noc.detourRoutes();
    out.unroutablePaths = noc.unroutablePaths();
    return out;
}

} // namespace adyna::fault
