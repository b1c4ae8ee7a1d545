/**
 * @file
 * Tests for the run-report serializers: JSON structure, CSV shape,
 * and value fidelity.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/report_io.hh"

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

} // namespace
