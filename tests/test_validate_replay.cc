/**
 * @file
 * Tests for the schedule validator and the routing-trace
 * record/replay path (save -> load round trip, replayed System runs
 * matching generator-driven runs on identical data, malformed-input
 * rejection).
 */

#include <gtest/gtest.h>
#include <memory>

#include <sstream>

#include "baselines/designs.hh"
#include "crossed_switches.hh"
#include "core/scheduler.hh"
#include "core/validate.hh"
#include "graph/parser.hh"
#include "models/models.hh"
#include "models/random.hh"
#include "trace/replay.hh"

namespace {

using namespace adyna;
using namespace adyna::core;

arch::HwConfig
hw()
{
    return arch::HwConfig{};
}

// ----------------------------------------------------------- validate

TEST(ValidateSchedule, AcceptsSchedulerOutput)
{
    for (const auto &name : models::workloadNames()) {
        const auto bundle = models::buildByName(name, 64);
        const auto dg = graph::parseModel(bundle.graph);
        costmodel::Mapper mapper(hw().tech);
        Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
        const Schedule s =
            sched.build({}, sched.initialKernelValues(), nullptr);
        const auto issues = validateSchedule(s, dg, hw());
        EXPECT_TRUE(issues.empty())
            << name << ":\n" << issuesToString(issues);
    }
}

TEST(ValidateSchedule, AcceptsRandomModels)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        models::RandomModelParams params;
        params.batch = 16;
        const auto bundle = models::buildRandomDynNN(params, seed);
        const auto dg = graph::parseModel(bundle.graph);
        costmodel::Mapper mapper(hw().tech);
        Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
        const Schedule s =
            sched.build({}, sched.initialKernelValues(), nullptr);
        const auto issues = validateSchedule(s, dg, hw());
        EXPECT_TRUE(issues.empty())
            << "seed " << seed << ":\n" << issuesToString(issues);
    }
}

TEST(ValidateSchedule, FlagsCorruptedSchedules)
{
    const auto bundle = models::buildSkipNet(32);
    const auto dg = graph::parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    Schedule s = sched.build({}, sched.initialKernelValues(), nullptr);

    // Drop one stage: coverage violation.
    Schedule missing = s;
    missing.mutableSegment(0).stages.pop_back();
    EXPECT_FALSE(validateSchedule(missing, dg, hw()).empty());

    // Out-of-range tile id.
    Schedule badTile = s;
    badTile.mutableSegment(0).stages[0].tiles[0] =
        static_cast<TileId>(hw().tiles() + 5);
    EXPECT_FALSE(validateSchedule(badTile, dg, hw()).empty());

    // Remove the worst-case kernel from one dynamic stage.
    Schedule badStore = s;
    for (auto &st : badStore.mutableSegment(0).stages) {
        if (!dg.isDynamic(st.op))
            continue;
        auto &slot = st.stores.begin()->second;
        if (slot->size() > 1) {
            kernels::KernelStore copy = *slot;
            copy.remove(copy.values().back());
            slot = std::make_shared<const kernels::KernelStore>(
                std::move(copy));
            break;
        }
    }
    EXPECT_FALSE(validateSchedule(badStore, dg, hw()).empty());

    // Swap two stages: topological-order violation.
    Schedule swapped = s;
    auto &swapStages = swapped.mutableSegment(0).stages;
    std::swap(swapStages[0], swapStages[2]);
    EXPECT_FALSE(validateSchedule(swapped, dg, hw()).empty());

    const auto issues = validateSchedule(swapped, dg, hw());
    EXPECT_NE(issuesToString(issues).find("topological"),
              std::string::npos);
}

// -------------------------------------------------------------- replay

TEST(Replay, SaveLoadRoundTrip)
{
    const auto bundle = models::buildTutelMoe(16);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceGenerator gen(dg, bundle.traceConfig, 5);
    const auto batches = trace::captureTrace(gen, 7);

    std::stringstream ss;
    trace::saveTrace(ss, batches);
    const auto loaded = trace::loadTrace(ss);
    ASSERT_EQ(loaded.size(), batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
        ASSERT_EQ(loaded[b].outcomes.size(),
                  batches[b].outcomes.size());
        for (const auto &[sw, oc] : batches[b].outcomes) {
            const auto &lo = loaded[b].outcome(sw);
            EXPECT_EQ(lo.branchCounts, oc.branchCounts);
            EXPECT_EQ(lo.activeBefore, oc.activeBefore);
            EXPECT_EQ(lo.activeAfter, oc.activeAfter);
        }
    }
}

/**
 * saveTrace writes each batch's switches in ascending id. The crossed
 * model routes them in another order, so its bytes are pinned: they
 * are what the map-keyed routing of earlier versions wrote.
 */
TEST(Replay, SaveTraceBytesPinnedOnCrossedSwitchOrder)
{
    const graph::DynGraph dg = test::crossedSwitchModel(8);
    trace::TraceConfig tc;
    tc.batchSize = 8;
    trace::TraceGenerator gen(dg, tc, 5);
    std::ostringstream os;
    trace::saveTrace(os, trace::captureTrace(gen, 3));
    EXPECT_EQ(os.str(), "adyna-trace v1 3\n"
                        "batch 0\n"
                        "switch 3 before 8 after 8 counts 4 4\n"
                        "switch 7 before 8 after 6 counts 2 6\n"
                        "switch 14 before 8 after 8 counts 3 6 3 4\n"
                        "batch 1\n"
                        "switch 3 before 8 after 8 counts 2 6\n"
                        "switch 7 before 8 after 5 counts 3 5\n"
                        "switch 14 before 8 after 8 counts 5 7 1 3\n"
                        "batch 2\n"
                        "switch 3 before 8 after 8 counts 4 4\n"
                        "switch 7 before 8 after 5 counts 3 5\n"
                        "switch 14 before 8 after 8 counts 3 5 4 4\n");
}

/**
 * A trace file may list a batch's switch records in any order:
 * loadTrace stores them in ascending switch id, so a file with every
 * batch's records reversed loads to the routings the ordered file
 * gives, and each op's dynValue reads its own switch.
 */
TEST(Replay, LoadTraceSortsOutOfOrderSwitchRecords)
{
    const graph::DynGraph dg = test::crossedSwitchModel(8);
    trace::TraceConfig tc;
    tc.batchSize = 8;
    trace::TraceGenerator gen(dg, tc, 9);
    const auto batches = trace::captureTrace(gen, 6);
    std::ostringstream ordered;
    trace::saveTrace(ordered, batches);

    // Reverse the switch lines of every batch.
    std::istringstream in(ordered.str());
    std::string reversed, line;
    std::vector<std::string> records;
    const auto flush = [&] {
        for (auto it = records.rbegin(); it != records.rend(); ++it)
            reversed += *it + '\n';
        records.clear();
    };
    while (std::getline(in, line)) {
        if (line.rfind("switch ", 0) == 0) {
            records.push_back(line);
        } else {
            flush();
            reversed += line + '\n';
        }
    }
    flush();
    ASSERT_NE(reversed, ordered.str());

    std::istringstream a(ordered.str()), b(reversed);
    const auto fromOrdered = trace::loadTrace(a);
    const auto fromReversed = trace::loadTrace(b);
    ASSERT_EQ(fromReversed.size(), batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
        ASSERT_EQ(fromReversed[i].outcomes.size(),
                  fromOrdered[i].outcomes.size());
        for (std::size_t k = 0; k < fromOrdered[i].outcomes.size(); ++k) {
            const auto &[sw, oc] = fromOrdered[i].outcomes[k];
            const auto &[swR, ocR] = fromReversed[i].outcomes[k];
            EXPECT_EQ(swR, sw);
            EXPECT_EQ(ocR.branchCounts, oc.branchCounts);
            EXPECT_EQ(ocR.activeBefore, oc.activeBefore);
            EXPECT_EQ(ocR.activeAfter, oc.activeAfter);
        }
        for (OpId op : dg.dynamicOps())
            EXPECT_EQ(fromReversed[i].dynValue(dg, op),
                      batches[i].dynValue(dg, op));
    }
}

TEST(Replay, RejectsMalformedInput)
{
    {
        std::stringstream ss("not-a-trace v1 3\n");
        EXPECT_EXIT((void)trace::loadTrace(ss),
                    ::testing::ExitedWithCode(1), "adyna-trace");
    }
    {
        std::stringstream ss("adyna-trace v1 2\nbatch 0\n");
        EXPECT_EXIT((void)trace::loadTrace(ss),
                    ::testing::ExitedWithCode(1), "declares 2");
    }
    {
        std::stringstream ss(
            "adyna-trace v1 1\nswitch 3 before 4 after 4 counts 1\n");
        EXPECT_EXIT((void)trace::loadTrace(ss),
                    ::testing::ExitedWithCode(1),
                    "before any batch");
    }
}

TEST(Replay, SystemReplayMatchesGeneratorOnSameData)
{
    const auto bundle = models::buildSkipNet(32);
    const auto dg = graph::parseModel(bundle.graph);
    const int batches = 30;

    // Generator-driven run.
    auto genSys =
        baselines::makeSystem(dg, bundle.traceConfig, hw(),
                              baselines::Design::AdynaStatic, batches,
                              11);
    const auto genRep = genSys.run();

    // Capture exactly the routing stream that run consumed: the main
    // stream (seed) plus nothing else -- rebuild it.
    trace::TraceGenerator gen(dg, bundle.traceConfig, 11);
    auto captured = trace::captureTrace(gen, batches);

    auto repSys =
        baselines::makeSystem(dg, bundle.traceConfig, hw(),
                              baselines::Design::AdynaStatic, batches,
                              11);
    repSys.setReplay(std::move(captured));
    const auto repRep = repSys.run();

    // Identical routing data with the static design (the offline
    // profile differs: it uses the replay prefix) still yields the
    // same batch count and the same order of magnitude; with equal
    // profiles the runtimes would match exactly, so just check the
    // engine consumed the replayed stream.
    EXPECT_EQ(repRep.batchEnds.size(),
              static_cast<std::size_t>(batches));
    EXPECT_GT(repRep.cycles, 0u);
    EXPECT_NEAR(repRep.timeMs, genRep.timeMs, 0.5 * genRep.timeMs);
}

TEST(Replay, FileRoundTrip)
{
    const auto bundle = models::buildSkipNet(16);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceGenerator gen(dg, bundle.traceConfig, 3);
    const auto batches = trace::captureTrace(gen, 4);
    const std::string path = "/tmp/adyna_trace_test.txt";
    trace::saveTraceFile(path, batches);
    const auto loaded = trace::loadTraceFile(path);
    EXPECT_EQ(loaded.size(), 4u);
}

} // namespace
