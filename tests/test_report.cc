/**
 * @file
 * Tests of the report helpers used by the benchmark harness.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "../bench/bench_json.h"
#include "analysis/report.h"

namespace hh::analysis {
namespace {

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"System", "Time", "Total"});
    table.addRow({"S1", "72 h", "395"});
    table.addRow({"S2", "48 h", "650"});
    const std::string out = table.render();
    EXPECT_NE(out.find("System"), std::string::npos);
    EXPECT_NE(out.find("S1"), std::string::npos);
    EXPECT_NE(out.find("650"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTable, ColumnsWidenToContent)
{
    TextTable table({"A"});
    table.addRow({"a-very-long-cell"});
    const std::string out = table.render();
    // The separator must span the widened column.
    EXPECT_NE(out.find(std::string(16, '-')), std::string::npos);
}

TEST(Formatters, Percent)
{
    EXPECT_EQ(formatPercent(0.229), "22.9%");
    EXPECT_EQ(formatPercent(0.913), "91.3%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Formatters, CountGrouping)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(51'200), "51,200");
    EXPECT_EQ(formatCount(1'234'567), "1,234,567");
}

TEST(Formatters, Double)
{
    EXPECT_EQ(formatDouble(4.04, 1), "4.0");
    EXPECT_EQ(formatDouble(16.67, 2), "16.67");
}

TEST(RenderSeries, ProducesChartWithGuides)
{
    base::Series s1("S1");
    base::Series s2("S2");
    for (int i = 0; i <= 50; ++i) {
        s1.add(i * 1000.0, 20'000.0 / (1 + i));
        s2.add(i * 1000.0, 17'000.0 / (1 + i));
    }
    const std::string chart =
        renderSeries({s1, s2}, 60, 12, {512.0, 1024.0});
    EXPECT_NE(chart.find('*'), std::string::npos);
    EXPECT_NE(chart.find('+'), std::string::npos);
    EXPECT_NE(chart.find("[*] S1"), std::string::npos);
    EXPECT_NE(chart.find("[+] S2"), std::string::npos);
    // Guide lines rendered as dashes inside the plot area.
    EXPECT_NE(chart.find('-'), std::string::npos);
}

TEST(RenderSeries, EmptyInputsAreSafe)
{
    EXPECT_EQ(renderSeries({}, 60, 12), "");
    base::Series empty("e");
    EXPECT_EQ(renderSeries({empty}, 60, 12), "");
}

TEST(JsonReport, WallSecondsCoverTheProcessNotTheReport)
{
    // A report constructed late (after its bench's work) must still
    // time the whole process, so the sleep has to show up.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const bench::JsonReport report("test_report");
    const std::string json = report.render();
    const std::string key = "\"env_wall_seconds\": ";
    const size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GE(std::stod(json.substr(at + key.size())), 0.2);
}

} // namespace
} // namespace hh::analysis
