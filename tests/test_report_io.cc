/**
 * @file
 * Tests for the report serializers: JSON structure, CSV shape, value
 * fidelity, and the exact bytes of every emitter (the run report's
 * JSON and CSV, and the serve, multi-tenant and pod JSON objects).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/report_io.hh"
#include "mtenant/runtime.hh"
#include "pod/runtime.hh"
#include "serve/server.hh"

namespace {

using namespace adyna;
using namespace adyna::core;

RunReport
sample()
{
    RunReport r;
    r.workload = "skipnet";
    r.design = "Adyna (static)";
    r.cycles = 123456;
    r.timeMs = 0.123456;
    r.batchesPerSecond = 1620.5;
    r.peUtilization = 0.55;
    r.hbmUtilization = 0.02;
    r.usefulMacs = 1000;
    r.issuedMacs = 1200;
    r.storedKernels = 42;
    r.segments = 2;
    r.reconfigurations = 4;
    r.energy.pe = 10.0;
    r.energy.sram = 5.0;
    r.energy.hbm = 3.0;
    r.energy.noc = 1.0;
    r.batchEnds = {100, 200, 300};
    return r;
}

/** A second report whose values need the exponent form and a
 * rounded sixth digit in the ostream default number style. */
RunReport
sampleLarge()
{
    RunReport r;
    r.workload = "tutel-moe";
    r.design = "Adyna";
    r.cycles = 98765432109;
    r.timeMs = 98765.432109;
    r.batchesPerSecond = 0.000123456789;
    r.peUtilization = 1.0 / 3.0;
    r.hbmUtilization = 0.0;
    r.usefulMacs = 12345678901234;
    r.issuedMacs = 12345678901235;
    r.storedKernels = 0;
    r.segments = 17;
    r.reconfigurations = 0;
    r.energy.pe = 12345678.9;
    r.energy.sram = 0.5;
    r.energy.hbm = 2.5e-7;
    r.energy.noc = 1234567.0;
    return r;
}

/** A serving report with every always-present field set to a value
 * that exercises its fixed-precision rounding (1000.125 is an exact
 * tie at two digits). */
serve::ServeReport
serveSample(const std::string &workload)
{
    serve::ServeReport r;
    r.workload = workload;
    r.mode = "adaptive";
    r.requests = 400;
    r.batches = 57;
    r.meanBatchSize = 400.0 / 57.0;
    r.offeredRps = 1000.125;
    r.achievedRps = 998.4567;
    r.p50Ms = 1.23456789;
    r.p95Ms = 2.5;
    r.p99Ms = 3.14159265;
    r.meanMs = 1.5;
    r.maxMs = 4.00004999;
    r.meanQueueMs = 0.25;
    r.sloAttainment = 0.9975;
    r.goodputRps = 996.00001;
    r.reschedules = 3;
    r.deltaReschedules = 2;
    r.segmentsRebuilt = 5;
    r.segmentsSpliced = 11;
    r.driftWindows = 9;
    r.lastDriftDistance = 0.31415;
    r.driftThreshold = 0.2;
    r.horizonTicks = 123456789012;
    r.mapperHits = 100;
    r.mapperMisses = 7;
    r.storeHits = 40;
    r.storeMisses = 3;
    return r;
}

/** Turn on and fill the fault block of @p r. */
void
addFault(serve::ServeReport &r)
{
    r.faultActive = true;
    r.shedRequests = 12;
    r.failovers = 1;
    r.watchdogFallbacks = 2;
    r.storeFitFailures = 0;
    r.failedTiles = 4;
    r.downLinks = 1;
    r.degradedLinks = 2;
    r.probeDrops = 30;
    r.probeRetries = 25;
    r.probeGiveUps = 5;
    r.nocDetours = 8;
    r.unroutablePaths = 1;
}

/** Turn on and fill the search block of @p r. */
void
addSearch(serve::ServeReport &r)
{
    r.searchActive = true;
    r.searchReschedules = 2;
    r.maxRescheduleCycles = 450000;
    r.search.candidatesTried = 640;
    r.search.candidatesAccepted = 77;
    r.search.materialized = 6;
    r.search.segmentsRebuilt = 9;
    r.search.segmentsSpliced = 21;
    r.search.fullRebuilds = 1;
    r.search.budgetSpentCycles = 399000;
    r.search.budgetExhausted = 1;
    r.search.improved = true;
}

mtenant::MTenantReport
mtenantSample()
{
    mtenant::MTenantReport r;
    r.mode = "isolation";
    r.repartitions = 2;
    r.preemptions = 1;
    r.failoverRepairs = 0;
    r.interferenceLinks = 6;
    r.tenantSwitches = 3;
    r.aggregateGoodputRps = 1234.5678;
    r.worstP99Ms = 9.87654;
    r.horizonTicks = 5000000;
    mtenant::TenantResult a;
    a.id = "chat";
    a.cls = serve::SloClass::LatencyCritical;
    a.tiles = 96;
    a.serve = serveSample("skipnet");
    mtenant::TenantResult b;
    b.id = "batch";
    b.cls = serve::SloClass::BestEffort;
    b.tiles = 48;
    b.serve = serveSample("tutel-moe");
    r.tenants = {a, b};
    return r;
}

/** A 2-chip pod; @p reliable turns on the router_stats block and
 * the per-chip hedged/sdc fields. */
pod::PodReport
podSample(bool reliable)
{
    pod::PodReport r;
    r.policy = "least-loaded";
    r.placement = "replicated";
    r.chipCount = 2;
    r.requests = 800;
    r.shedRequests = 4;
    r.darkChipSheds = 1;
    r.rerouted = 6;
    r.drained = 2;
    r.diverted = 3;
    r.affinityHits = 0;
    r.affinityMisses = 0;
    r.chipFailEvents = 1;
    r.chipHeals = 1;
    r.icTransfers = 1612;
    r.icRequestBytes = 3200000;
    r.icResponseBytes = 1600000;
    r.icWeightBytes = 987654321;
    r.offeredRps = 2000.5;
    r.achievedRps = 1990.125;
    r.p50Ms = 1.11111;
    r.p95Ms = 2.22222;
    r.p99Ms = 3.33333;
    r.sloAttainment = 0.99;
    r.goodputRps = 1980.0;
    r.horizonTicks = 7777777;
    r.reliabilityActive = reliable;
    if (reliable) {
        pod::PodReliabilityStats &s = r.reliability;
        s.hedges = 10;
        s.hedgeWins = 4;
        s.hedgeCancelled = 7;
        s.wastedCompletions = 3;
        s.brownoutSheds = 2;
        s.timeouts = 1;
        s.probes = 50;
        s.probeFailures = 5;
        s.breakerTrips = 2;
        s.breakerReopens = 1;
        s.breakerCloses = 1;
        s.linkRetries = 6;
        s.integrityRetries = 3;
        s.corruptionsInjected = 3;
        s.corruptionsDetected = 3;
        s.corruptionsUndetected = 0;
        s.icProbeBytes = 3200;
        s.icRetryBytes = 64000;
    }
    for (int c = 0; c < 2; ++c) {
        pod::ChipResult chip;
        chip.id = c;
        chip.model = "skipnet";
        chip.dark = c == 1;
        chip.routed = 400 + static_cast<std::uint64_t>(c);
        chip.rerouted = static_cast<std::uint64_t>(3 * c);
        chip.drained = static_cast<std::uint64_t>(c);
        chip.hedged = 5;
        chip.sdc = static_cast<std::uint64_t>(c);
        chip.serve = serveSample("skipnet");
        r.chips.push_back(chip);
    }
    return r;
}

TEST(ReportJson, ContainsAllScalarFields)
{
    const std::string j = toJson(sample());
    for (const char *needle :
         {"\"workload\":\"skipnet\"", "\"design\":\"Adyna (static)\"",
          "\"cycles\":123456", "\"pe_utilization\":0.55",
          "\"stored_kernels\":42", "\"reconfigurations\":4",
          "\"total\":19"}) {
        EXPECT_NE(j.find(needle), std::string::npos) << needle;
    }
    // Batch series excluded by default.
    EXPECT_EQ(j.find("batch_ends"), std::string::npos);
}

TEST(ReportJson, BatchSeriesOptIn)
{
    const std::string j = toJson(sample(), /*include_batches=*/true);
    EXPECT_NE(j.find("\"batch_ends\":[100,200,300]"),
              std::string::npos);
}

TEST(ReportJson, ArrayOfReports)
{
    const std::string j = toJson(std::vector<RunReport>{sample(),
                                                        sample()});
    EXPECT_EQ(j.front(), '[');
    EXPECT_EQ(j.back(), ']');
    // Two objects separated by a comma.
    EXPECT_NE(j.find("},{"), std::string::npos);
}

TEST(ReportCsv, HeaderAndRowsAlign)
{
    const std::string csv = toCsv({sample(), sample()});
    std::istringstream is(csv);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(lines[0]), commas(lines[1]));
    EXPECT_EQ(commas(lines[1]), commas(lines[2]));
    EXPECT_NE(lines[0].find("pe_utilization"), std::string::npos);
    EXPECT_NE(lines[1].find("skipnet"), std::string::npos);
}

// ---- exact bytes ----------------------------------------------------
// Every emitter's output pinned byte for byte: separators, number
// styles (the ostream default in the run report, printf fixed
// precision in the serving reports), escaping, field order and which
// optional blocks appear.

/** serveSample's fields after "workload" and "mode", in order. */
const std::string kServeStats =
    "\"requests\": 400, \"batches\": 57, \"mean_batch\": 7.018, "
    "\"offered_rps\": 1000.12, \"achieved_rps\": 998.46, "
    "\"p50_ms\": 1.2346, \"p95_ms\": 2.5000, \"p99_ms\": 3.1416, "
    "\"mean_ms\": 1.5000, \"max_ms\": 4.0000, "
    "\"mean_queue_ms\": 0.2500, \"slo_attainment\": 0.9975, "
    "\"goodput_rps\": 996.00, \"reschedules\": 3, "
    "\"delta_reschedules\": 2, \"segments_rebuilt\": 5, "
    "\"segments_spliced\": 11, \"drift_windows\": 9, "
    "\"last_drift_l1\": 0.3141, \"drift_threshold\": 0.2000, "
    "\"horizon_ticks\": 123456789012, \"mapper_hits\": 100, "
    "\"mapper_misses\": 7, \"store_hits\": 40, \"store_misses\": 3";

/** serveSample("skipnet")'s always-present fields. */
const std::string kServeSkipnet =
    "\"workload\": \"skipnet\", \"mode\": \"adaptive\", " + kServeStats;

const std::string kFaultBlock =
    ", \"shed_requests\": 12, \"failovers\": 1, "
    "\"watchdog_fallbacks\": 2, \"store_fit_failures\": 0, "
    "\"failed_tiles\": 4, \"down_links\": 1, \"degraded_links\": 2, "
    "\"probe_drops\": 30, \"probe_retries\": 25, "
    "\"probe_give_ups\": 5, \"noc_detours\": 8, "
    "\"unroutable_paths\": 1";

const std::string kSearchBlock =
    ", \"search_reschedules\": 2, \"max_reschedule_cycles\": 450000, "
    "\"search_tried\": 640, \"search_accepted\": 77, "
    "\"search_materialized\": 6, \"search_segments_rebuilt\": 9, "
    "\"search_segments_spliced\": 21, \"search_full_rebuilds\": 1, "
    "\"search_budget_spent\": 399000, "
    "\"search_budget_exhausted\": true, "
    "\"search_improved_last\": true";

const std::string kRunSampleJson =
    "{\"workload\":\"skipnet\",\"design\":\"Adyna (static)\","
    "\"cycles\":123456,\"time_ms\":0.123456,"
    "\"batches_per_second\":1620.5,\"pe_utilization\":0.55,"
    "\"hbm_utilization\":0.02,\"useful_macs\":1000,"
    "\"issued_macs\":1200,\"stored_kernels\":42,\"segments\":2,"
    "\"reconfigurations\":4,\"energy_pj\":{\"pe\":10,\"sram\":5,"
    "\"hbm\":3,\"noc\":1,\"total\":19}";

const std::string kRunLargeJson =
    "{\"workload\":\"tutel-moe\",\"design\":\"Adyna\","
    "\"cycles\":98765432109,\"time_ms\":98765.4,"
    "\"batches_per_second\":0.000123457,"
    "\"pe_utilization\":0.333333,\"hbm_utilization\":0,"
    "\"useful_macs\":12345678901234,"
    "\"issued_macs\":12345678901235,\"stored_kernels\":0,"
    "\"segments\":17,\"reconfigurations\":0,"
    "\"energy_pj\":{\"pe\":1.23457e+07,\"sram\":0.5,"
    "\"hbm\":2.5e-07,\"noc\":1.23457e+06,\"total\":1.35802e+07}";

TEST(ReportGolden, RunReportJsonBytes)
{
    EXPECT_EQ(toJson(sample()), kRunSampleJson + "}");
    EXPECT_EQ(toJson(sample(), /*include_batches=*/true),
              kRunSampleJson + ",\"batch_ends\":[100,200,300]}");
    EXPECT_EQ(toJson(sampleLarge(), /*include_batches=*/true),
              kRunLargeJson + ",\"batch_ends\":[]}");
    EXPECT_EQ(toJson(std::vector<RunReport>{sample(), sampleLarge()}),
              "[" + kRunSampleJson + "}," + kRunLargeJson + "}]");
    EXPECT_EQ(toJson(std::vector<RunReport>{sample()},
                     /*include_batches=*/true),
              "[" + kRunSampleJson + ",\"batch_ends\":[100,200,300]}]");
    EXPECT_EQ(toJson(std::vector<RunReport>{}), "[]");
}

TEST(ReportGolden, RunReportCsvBytes)
{
    EXPECT_EQ(toCsv({sample(), sampleLarge()}),
              "workload,design,cycles,time_ms,batches_per_second,"
              "pe_utilization,hbm_utilization,useful_macs,issued_macs,"
              "stored_kernels,segments,reconfigurations,energy_pe_pj,"
              "energy_sram_pj,energy_hbm_pj,energy_noc_pj,"
              "energy_total_pj\n"
              "skipnet,Adyna (static),123456,0.123456,1620.5,0.55,0.02,"
              "1000,1200,42,2,4,10,5,3,1,19\n"
              "tutel-moe,Adyna,98765432109,98765.4,0.000123457,"
              "0.333333,0,12345678901234,12345678901235,0,17,0,"
              "1.23457e+07,0.5,2.5e-07,1.23457e+06,1.35802e+07\n");
}

TEST(ReportGolden, ServeReportBytes)
{
    const serve::ServeReport plain = serveSample("skipnet");
    EXPECT_EQ(serve::toJson(plain), "{" + kServeSkipnet + "}");

    serve::ServeReport fault = plain;
    addFault(fault);
    EXPECT_EQ(serve::toJson(fault),
              "{" + kServeSkipnet + kFaultBlock + "}");

    serve::ServeReport search = plain;
    addSearch(search);
    EXPECT_EQ(serve::toJson(search),
              "{" + kServeSkipnet + kSearchBlock + "}");

    serve::ServeReport both = fault;
    addSearch(both);
    EXPECT_EQ(serve::toJson(both),
              "{" + kServeSkipnet + kFaultBlock + kSearchBlock + "}");
}

TEST(ReportGolden, ServeReportEscapesName)
{
    EXPECT_EQ(serve::toJson(serveSample("my \"model\"\\v2\n\t\x01 end")),
              "{\"workload\": \"my \\\"model\\\"\\\\v2\\n\\t\\u0001 end\", "
              "\"mode\": \"adaptive\", " +
                  kServeStats + "}");
}

TEST(ReportGolden, MTenantReportBytes)
{
    EXPECT_EQ(mtenant::toJson(mtenantSample()),
              "{\"mode\": \"isolation\", \"tenant_count\": 2, "
              "\"repartitions\": 2, \"preemptions\": 1, "
              "\"failover_repairs\": 0, \"interference_links\": 6, "
              "\"tenant_switches\": 3, "
              "\"aggregate_goodput_rps\": 1234.57, "
              "\"worst_p99_ms\": 9.8765, \"horizon_ticks\": 5000000, "
              "\"tenants\": [{\"tenant\": \"chat\", "
              "\"slo_class\": \"latency-critical\", \"tiles\": 96, " +
                  kServeSkipnet +
                  "}, {\"tenant\": \"batch\", "
                  "\"slo_class\": \"best-effort\", \"tiles\": 48, "
                  "\"workload\": \"tutel-moe\", \"mode\": \"adaptive\", " +
                  kServeStats + "}]}");
}

TEST(ReportGolden, PodReportBytes)
{
    const std::string head =
        "{\"policy\": \"least-loaded\", \"placement\": \"replicated\", "
        "\"chip_count\": 2, \"requests\": 800, \"shed_requests\": 4, "
        "\"dark_chip_sheds\": 1, \"rerouted\": 6, \"drained\": 2, "
        "\"diverted\": 3, \"affinity_hits\": 0, "
        "\"affinity_misses\": 0, \"chip_fail_events\": 1, "
        "\"chip_heals\": 1, \"ic_transfers\": 1612, "
        "\"ic_request_bytes\": 3200000, "
        "\"ic_response_bytes\": 1600000, "
        "\"ic_weight_bytes\": 987654321, \"offered_rps\": 2000.50, "
        "\"achieved_rps\": 1990.12, \"p50_ms\": 1.1111, "
        "\"p95_ms\": 2.2222, \"p99_ms\": 3.3333, "
        "\"slo_attainment\": 0.9900, \"goodput_rps\": 1980.00, "
        "\"horizon_ticks\": 7777777, ";
    const std::string chip0 =
        "{\"chip\": 0, \"model\": \"skipnet\", \"dark\": false, "
        "\"routed\": 400, \"rerouted\": 0, \"drained\": 0, ";
    const std::string chip1 =
        "{\"chip\": 1, \"model\": \"skipnet\", \"dark\": true, "
        "\"routed\": 401, \"rerouted\": 3, \"drained\": 1, ";
    EXPECT_EQ(pod::toJson(podSample(false)),
              head + "\"chips\": [" + chip0 + kServeSkipnet + "}, " +
                  chip1 + kServeSkipnet + "}]}");
    EXPECT_EQ(pod::toJson(podSample(true)),
              head +
                  "\"router_stats\": {\"sheds\": 4, \"diverted\": 3, "
                  "\"hedges\": 10, \"hedge_wins\": 4, "
                  "\"hedge_cancelled\": 7, \"wasted_completions\": 3, "
                  "\"brownout_sheds\": 2, \"timeouts\": 1, "
                  "\"probes\": 50, \"probe_failures\": 5, "
                  "\"breaker_trips\": 2, \"breaker_reopens\": 1, "
                  "\"breaker_closes\": 1, \"link_retries\": 6, "
                  "\"integrity_retries\": 3, "
                  "\"corruptions_injected\": 3, "
                  "\"corruptions_detected\": 3, "
                  "\"corruptions_undetected\": 0, "
                  "\"ic_probe_bytes\": 3200, "
                  "\"ic_retry_bytes\": 64000}, \"chips\": [" +
                  chip0 + "\"hedged\": 5, \"sdc\": 0, " + kServeSkipnet +
                  "}, " + chip1 + "\"hedged\": 5, \"sdc\": 1, " +
                  kServeSkipnet + "}]}");
}

} // namespace
