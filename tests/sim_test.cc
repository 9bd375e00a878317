/**
 * @file
 * Unit tests for sim/: event queue determinism, timeline
 * aggregations, and the occupancy simulator.
 */

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace spindle {
namespace {

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(2.0, [&] { order.push_back(2); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(3.0, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&] {
        ++fired;
        q.schedule(q.now() + 1.0, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsPastScheduling)
{
    EventQueue q;
    q.schedule(5.0, [] {});
    q.step();
    EXPECT_DEATH(q.schedule(1.0, [] {}), "past");
}

TEST(Timeline, MakespanAndTotalFlops)
{
    Timeline t;
    t.record({0, 0.0, 1.0, ExecKind::Compute, 100, 0, "a"});
    t.record({1, 0.5, 2.0, ExecKind::Compute, 50, 1, "b"});
    EXPECT_DOUBLE_EQ(t.makespan(), 2.0);
    EXPECT_DOUBLE_EQ(t.totalFlops(), 150.0);
}

TEST(Timeline, ClusterSeriesConservesFlops)
{
    Timeline t;
    t.record({0, 0.0, 1.0, ExecKind::Compute, 100, 0, ""});
    t.record({1, 1.0, 2.0, ExecKind::Compute, 300, 1, ""});
    auto series = t.clusterFlopsSeries(4);
    ASSERT_EQ(series.size(), 4u);
    // Integrating rate over bins recovers total FLOPs.
    double integral = 0;
    for (double r : series)
        integral += r * (t.makespan() / 4);
    EXPECT_NEAR(integral, 400.0, 1e-9);
    // First half rate 100 FLOPs/s, second half 300 FLOPs/s.
    EXPECT_NEAR(series[0], 100.0, 1e-9);
    EXPECT_NEAR(series[3], 300.0, 1e-9);
}

TEST(Timeline, DeviceBusyFraction)
{
    Timeline t;
    t.record({0, 0.0, 2.0, ExecKind::Compute, 10, 0, ""});
    t.record({1, 0.0, 1.0, ExecKind::Transmission, 0, -1, ""});
    auto busy = t.deviceBusyFraction(3);
    EXPECT_DOUBLE_EQ(busy[0], 1.0);
    EXPECT_DOUBLE_EQ(busy[1], 0.5);
    EXPECT_DOUBLE_EQ(busy[2], 0.0);
}

TEST(Timeline, MetaOpUtilization)
{
    Timeline t;
    // MetaOp 7 retires 50 FLOPs over 1 device-second at peak 100.
    t.record({0, 0.0, 1.0, ExecKind::Compute, 50, 7, ""});
    EXPECT_DOUBLE_EQ(t.metaOpUtilization(7, 100.0), 0.5);
    EXPECT_DOUBLE_EQ(t.metaOpUtilization(9, 100.0), 0.0);
}

TEST(Timeline, TotalDeviceSecondsByKind)
{
    Timeline t;
    t.record({0, 0.0, 1.0, ExecKind::Compute, 1, 0, ""});
    t.record({1, 0.0, 3.0, ExecKind::Sync, 0, -1, ""});
    EXPECT_DOUBLE_EQ(t.totalDeviceSeconds(ExecKind::Compute), 1.0);
    EXPECT_DOUBLE_EQ(t.totalDeviceSeconds(ExecKind::Sync), 3.0);
    EXPECT_DOUBLE_EQ(t.totalDeviceSeconds(ExecKind::Transmission), 0.0);
}

TEST(Simulator, OccupySerializesOnSharedDevices)
{
    Simulator sim(4);
    double e1 = sim.occupy({0, 1}, 0.0, 1.0, ExecKind::Compute, 10, 0,
                           "a");
    EXPECT_DOUBLE_EQ(e1, 1.0);
    // Disjoint group runs concurrently.
    double e2 = sim.occupy({2, 3}, 0.0, 0.5, ExecKind::Compute, 10, 1,
                           "b");
    EXPECT_DOUBLE_EQ(e2, 0.5);
    // Overlapping group waits for device 1.
    double e3 = sim.occupy({1, 2}, 0.0, 1.0, ExecKind::Compute, 10, 2,
                           "c");
    EXPECT_DOUBLE_EQ(e3, 2.0);
}

TEST(Simulator, GroupFreeIsMaxOverDevices)
{
    Simulator sim(4);
    sim.occupy({0}, 0.0, 2.0, ExecKind::Compute, 1, 0, "a");
    EXPECT_DOUBLE_EQ(sim.groupFree({0, 3}), 2.0);
    EXPECT_DOUBLE_EQ(sim.groupFree({2, 3}), 0.0);
}

TEST(Simulator, FlopsSplitEvenlyAcrossGroup)
{
    Simulator sim(2);
    sim.occupy({0, 1}, 0.0, 1.0, ExecKind::Compute, 100, 0, "a");
    const std::vector<ExecRecord> &recs = sim.timeline().records();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_DOUBLE_EQ(recs[0].flops, 50.0);
    EXPECT_DOUBLE_EQ(recs[1].flops, 50.0);
}

TEST(Simulator, RejectsUnknownDevice)
{
    Simulator sim(2);
    EXPECT_DEATH(sim.occupy({5}, 0.0, 1.0, ExecKind::Compute, 0, 0, "x"),
                 "bad device");
}

TEST(Simulator, RejectsBadDeviceMidGroupBeforeRecording)
{
    // A bad id in the middle of a group must be caught by the
    // pre-validation pass (before any timeline or availability
    // mutation), not after earlier devices were already recorded.
    Simulator sim(4);
    EXPECT_DEATH(sim.occupy({0, 1, 9}, 0.0, 1.0, ExecKind::Compute, 0,
                            0, "x"),
                 "bad device");
}

TEST(Simulator, ReplayYieldsIdenticalTimeline)
{
    // Executing the same occupy sequence on two fresh simulators
    // yields bit-identical timelines.
    auto replay = [](Simulator &sim) {
        sim.occupy({0, 1}, 0.0, 1.0, ExecKind::Compute, 100, 0, "a");
        sim.occupy({2, 3}, 0.5, 0.25, ExecKind::Transmission, 0, 1, "t");
        sim.occupy({1, 2}, 0.0, 2.0, ExecKind::Sync, 0, -1, "s");
    };
    Simulator sim_a(4), sim_b(4);
    replay(sim_a);
    replay(sim_b);
    const std::vector<ExecRecord> &first = sim_a.timeline().records();
    const std::vector<ExecRecord> &second = sim_b.timeline().records();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].device, second[i].device);
        EXPECT_EQ(first[i].start, second[i].start);
        EXPECT_EQ(first[i].end, second[i].end);
        EXPECT_EQ(first[i].kind, second[i].kind);
        EXPECT_STREQ(first[i].label, second[i].label);
    }
}

} // namespace
} // namespace spindle
