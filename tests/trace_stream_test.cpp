/** @file Unit tests for trace-driven warp streams and JSON reporting. */

#include <gtest/gtest.h>

#include <sstream>

#include "runner/json_report.h"
#include "workload/trace_stream.h"

namespace mosaic {
namespace {

TEST(TraceFileTest, ParsesWarpsComputeLoadsStores)
{
    std::istringstream in(
        "# a tiny trace\n"
        "W 0\n"
        "C 5\n"
        "L 1000 1080\n"
        "S 2000\n"
        "W 2\n"
        "C 1\n");
    const auto trace = TraceFile::parse(in);
    ASSERT_EQ(trace->numWarps(), 3u);
    EXPECT_EQ(trace->warp(0).size(), 3u);
    EXPECT_EQ(trace->warp(1).size(), 0u);
    EXPECT_EQ(trace->warp(2).size(), 1u);
    EXPECT_EQ(trace->totalInstructions(), 4u);

    const WarpInstr &compute = trace->warp(0)[0];
    EXPECT_FALSE(compute.isMemory);
    EXPECT_EQ(compute.computeLatency, 5u);

    const WarpInstr &load = trace->warp(0)[1];
    EXPECT_TRUE(load.isMemory);
    EXPECT_FALSE(load.isStore);
    ASSERT_EQ(load.numLines, 2u);
    EXPECT_EQ(load.lineAddrs[0], 0x1000u);
    EXPECT_EQ(load.lineAddrs[1], 0x1080u);

    const WarpInstr &store = trace->warp(0)[2];
    EXPECT_TRUE(store.isStore);
    EXPECT_EQ(store.lineAddrs[0], 0x2000u);
}

TEST(TraceFileTest, CommentsAndBlankLinesIgnored)
{
    std::istringstream in("\n# only comments\nW 0\n# mid\nC 1\n\n");
    const auto trace = TraceFile::parse(in);
    EXPECT_EQ(trace->totalInstructions(), 1u);
}

TEST(TraceFileDeathTest, InstructionBeforeWarpIsFatal)
{
    std::istringstream in("C 1\n");
    EXPECT_DEATH((void)TraceFile::parse(in), "before any W");
}

TEST(TraceFileDeathTest, UnknownOpIsFatal)
{
    std::istringstream in("W 0\nX 1\n");
    EXPECT_DEATH((void)TraceFile::parse(in), "unknown op");
}

TEST(TraceFileDeathTest, EmptyMemoryInstructionIsFatal)
{
    std::istringstream in("W 0\nL\n");
    EXPECT_DEATH((void)TraceFile::parse(in), "no addresses");
}

TEST(TraceWarpStreamTest, ReplaysInOrderThenEnds)
{
    std::istringstream in("W 0\nC 2\nL 1000\nC 3\n");
    const auto trace = TraceFile::parse(in);
    TraceWarpStream stream(trace, 0);
    WarpInstr i;
    ASSERT_TRUE(stream.next(i));
    EXPECT_EQ(i.computeLatency, 2u);
    ASSERT_TRUE(stream.next(i));
    EXPECT_TRUE(i.isMemory);
    ASSERT_TRUE(stream.next(i));
    EXPECT_EQ(i.computeLatency, 3u);
    EXPECT_FALSE(stream.next(i));
}

TEST(TraceWarpStreamTest, OutOfRangeWarpIsEmpty)
{
    std::istringstream in("W 0\nC 1\n");
    const auto trace = TraceFile::parse(in);
    TraceWarpStream stream(trace, 7);
    WarpInstr i;
    EXPECT_FALSE(stream.next(i));
}

TEST(JsonReportTest, EmitsWellFormedFields)
{
    SimResult r;
    r.configLabel = "Mosaic";
    r.workloadName = "HISTO-x2";
    r.totalCycles = 123;
    r.metrics.values.push_back({"mm.coalesceOps", {}, true, 7, 0.0});
    AppResult app;
    app.name = "HISTO";
    app.smCount = 15;
    app.instructions = 1000;
    app.ipc = 0.5;
    r.apps.push_back(app);

    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"config\":\"Mosaic\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"HISTO-x2\""), std::string::npos);
    EXPECT_NE(json.find("\"totalCycles\":123"), std::string::npos);
    EXPECT_NE(json.find("\"coalesceOps\":7"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"HISTO\""), std::string::npos);
    // Balanced braces/brackets.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(JsonReportTest, EscapesSpecialCharacters)
{
    SimResult r;
    r.configLabel = "a\"b\\c";
    const std::string json = toJson(r);
    EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

}  // namespace
}  // namespace mosaic
