#include "core/report_io.hh"

#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace adyna::core {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: {
            const auto u = static_cast<unsigned char>(c);
            if (u < 0x20) {
                static constexpr char kHex[] = "0123456789abcdef";
                out += "\\u00";
                out.push_back(kHex[u >> 4]);
                out.push_back(kHex[u & 0xf]);
            } else {
                out.push_back(c);
            }
          }
        }
    }
    return out;
}

std::string
formatString(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list again;
    va_copy(again, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(static_cast<std::size_t>(len > 0 ? len : 0), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, again);
    va_end(again);
    return out;
}

namespace {

void
emitCommon(std::ostringstream &os, const RunReport &r)
{
    os << "\"workload\":\"" << jsonEscape(r.workload) << "\","
       << "\"design\":\"" << jsonEscape(r.design) << "\","
       << "\"cycles\":" << r.cycles << ","
       << "\"time_ms\":" << r.timeMs << ","
       << "\"batches_per_second\":" << r.batchesPerSecond << ","
       << "\"pe_utilization\":" << r.peUtilization << ","
       << "\"hbm_utilization\":" << r.hbmUtilization << ","
       << "\"useful_macs\":" << r.usefulMacs << ","
       << "\"issued_macs\":" << r.issuedMacs << ","
       << "\"stored_kernels\":" << r.storedKernels << ","
       << "\"segments\":" << r.segments << ","
       << "\"reconfigurations\":" << r.reconfigurations << ","
       << "\"energy_pj\":{"
       << "\"pe\":" << r.energy.pe << ","
       << "\"sram\":" << r.energy.sram << ","
       << "\"hbm\":" << r.energy.hbm << ","
       << "\"noc\":" << r.energy.noc << ","
       << "\"total\":" << r.energy.total() << "}";
}

} // namespace

std::string
toJson(const RunReport &report, bool include_batches)
{
    std::ostringstream os;
    os << "{";
    emitCommon(os, report);
    if (include_batches) {
        os << ",\"batch_ends\":[";
        for (std::size_t i = 0; i < report.batchEnds.size(); ++i) {
            if (i)
                os << ",";
            os << report.batchEnds[i];
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

std::string
toJson(const std::vector<RunReport> &reports, bool include_batches)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i)
            os << ",";
        os << toJson(reports[i], include_batches);
    }
    os << "]";
    return os.str();
}

std::string
cacheStatsJson(const RunReport &r)
{
    std::ostringstream os;
    os << "{\"mapper_hits\":" << r.mapperHits << ","
       << "\"mapper_misses\":" << r.mapperMisses << ","
       << "\"store_hits\":" << r.storeHits << ","
       << "\"store_misses\":" << r.storeMisses << "}";
    return os.str();
}

std::string
faultStatsJson(const RunReport &r)
{
    const fault::FaultStats &f = r.fault;
    std::ostringstream os;
    os << "{\"failovers\":" << r.failovers << ","
       << "\"tile_fail_events\":" << f.tileFailEvents << ","
       << "\"tile_recoveries\":" << f.tileRecoveries << ","
       << "\"link_down_events\":" << f.linkDownEvents << ","
       << "\"link_degrade_events\":" << f.linkDegradeEvents << ","
       << "\"link_recoveries\":" << f.linkRecoveries << ","
       << "\"probe_drop_windows\":" << f.probeDropWindows << ","
       << "\"store_fit_windows\":" << f.storeFitWindows << ","
       << "\"failed_tiles\":" << f.failedTiles << ","
       << "\"down_links\":" << f.downLinks << ","
       << "\"degraded_links\":" << f.degradedLinks << ","
       << "\"probe_drops\":" << f.probeDrops << ","
       << "\"probe_retries\":" << f.probeRetries << ","
       << "\"probe_give_ups\":" << f.probeGiveUps << ","
       << "\"detour_routes\":" << f.detourRoutes << ","
       << "\"unroutable_paths\":" << f.unroutablePaths << "}";
    return os.str();
}

std::string
csvHeader()
{
    return "workload,design,cycles,time_ms,batches_per_second,"
           "pe_utilization,hbm_utilization,useful_macs,issued_macs,"
           "stored_kernels,segments,reconfigurations,"
           "energy_pe_pj,energy_sram_pj,energy_hbm_pj,energy_noc_pj,"
           "energy_total_pj";
}

std::string
toCsvRow(const RunReport &r)
{
    std::ostringstream os;
    os << r.workload << ',' << r.design << ',' << r.cycles << ','
       << r.timeMs << ',' << r.batchesPerSecond << ','
       << r.peUtilization << ',' << r.hbmUtilization << ','
       << r.usefulMacs << ',' << r.issuedMacs << ','
       << r.storedKernels << ',' << r.segments << ','
       << r.reconfigurations << ',' << r.energy.pe << ','
       << r.energy.sram << ',' << r.energy.hbm << ',' << r.energy.noc
       << ',' << r.energy.total();
    return os.str();
}

std::string
toCsv(const std::vector<RunReport> &reports)
{
    std::ostringstream os;
    os << csvHeader() << '\n';
    for (const RunReport &r : reports)
        os << toCsvRow(r) << '\n';
    return os.str();
}

} // namespace adyna::core
