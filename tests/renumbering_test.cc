/**
 * @file
 * Device-renumbering invariance (§3.5 refactor): the island graph —
 * not the device numbering — is what placement behaviour may depend
 * on. Relabeling device ids by an island-structure-preserving
 * permutation must yield plans that are the permutation image of the
 * original plans (island-aware windows), and the consecutive-devices
 * baseline must not notice islands at all.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/spindle_system.h"
#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::StripeRelabel;

/** Contiguous 2 x 8 cluster and its striped relabeling. */
ClusterConfig
contiguousConfig()
{
    return testutil::contiguousIslandConfig(2, 8);
}

ClusterConfig
stripedConfig()
{
    return testutil::stripedIslandConfig(2, 8);
}

PlannerOutput
planOn(ClusterConfig cfg, const ComputationGraph &g,
       PlannerOptions options)
{
    ClusterTopology topo(std::move(cfg));
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    return ExecutionPlanner(hw, options).plan(meta);
}

/** Non-placement plan structure must be unaffected by renumbering. */
void
expectSameStructure(const ExecutionPlan &a, const ExecutionPlan &b)
{
    ASSERT_EQ(a.waves.size(), b.waves.size());
    EXPECT_DOUBLE_EQ(a.estimatedSpan, b.estimatedSpan);
    for (std::size_t i = 0; i < a.waves.size(); ++i) {
        ASSERT_EQ(a.waves[i].entries.size(), b.waves[i].entries.size());
        for (std::size_t j = 0; j < a.waves[i].entries.size(); ++j) {
            const WaveEntry &ea = a.waves[i].entries[j];
            const WaveEntry &eb = b.waves[i].entries[j];
            EXPECT_EQ(ea.metaOp, eb.metaOp);
            EXPECT_EQ(ea.n, eb.n);
            EXPECT_EQ(ea.opBegin, eb.opBegin);
            EXPECT_EQ(ea.numOps, eb.numOps);
            EXPECT_DOUBLE_EQ(ea.duration, eb.duration);
        }
    }
}

/** Device sets of b must be the pi-image of those of a, entry by
 *  entry; per-device peaks must match under pi as well. */
void
expectEquivariant(const PlannerOutput &a, const PlannerOutput &b,
                  const StripeRelabel &pi)
{
    expectSameStructure(a.plan, b.plan);
    for (std::size_t i = 0; i < a.plan.waves.size(); ++i) {
        for (std::size_t j = 0; j < a.plan.waves[i].entries.size();
             ++j) {
            SCOPED_TRACE(strCat("wave ", i, " entry ", j));
            EXPECT_EQ(pi.image(a.plan.waves[i].entries[j].devices),
                      b.plan.waves[i].entries[j].devices);
        }
    }
    EXPECT_DOUBLE_EQ(a.placement.estimatedCommSeconds,
                     b.placement.estimatedCommSeconds);
    EXPECT_DOUBLE_EQ(a.placement.interIslandCommSeconds,
                     b.placement.interIslandCommSeconds);
    EXPECT_EQ(a.placement.usedMemoryFallback,
              b.placement.usedMemoryFallback);
    ASSERT_EQ(a.placement.peakBytes.size(), b.placement.peakBytes.size());
    for (std::size_t d = 0; d < a.placement.peakBytes.size(); ++d)
        EXPECT_DOUBLE_EQ(a.placement.peakBytes[d],
                         b.placement.peakBytes[pi(
                             static_cast<DeviceId>(d))])
            << "device " << d;
}

TEST(Renumbering, IslandAwarePlacementIsEquivariant)
{
    // Comm-first pass on two seed workloads.
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    StripeRelabel pi{2, 8};
    for (const ComputationGraph &g :
         {buildMultitaskClip({.numTasks = 4}),
          buildOfasys({.numTasks = 4})}) {
        PlannerOutput a = planOn(contiguousConfig(), g, options);
        PlannerOutput b = planOn(stripedConfig(), g, options);
        expectEquivariant(a, b, pi);
    }
}

TEST(Renumbering, IslandAwareMemoryFirstPassIsEquivariant)
{
    // Shrink HBM until the memory-first fallback fires, then check
    // equivariance of the fallback pass too.
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    StripeRelabel pi{2, 8};
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});

    PlannerOutput roomy = planOn(contiguousConfig(), g, options);
    double peak = 0;
    for (double b : roomy.placement.peakBytes)
        peak = std::max(peak, b);

    bool exercised = false;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75}) {
        const double hbm = peak * frac / kMemorySlack;
        ClusterConfig ca = contiguousConfig();
        ClusterConfig cb = stripedConfig();
        ca.device.memoryBytes = hbm;
        cb.device.memoryBytes = hbm;
        PlannerOutput a = planOn(std::move(ca), g, options);
        PlannerOutput b = planOn(std::move(cb), g, options);
        expectEquivariant(a, b, pi);
        if (a.placement.usedMemoryFallback) {
            exercised = true;
            break;
        }
    }
    EXPECT_TRUE(exercised)
        << "pressure ladder never forced the memory-first pass";
}

TEST(Renumbering, SequentialBaselineIgnoresIslands)
{
    // The Fig. 10 ablation allocates consecutive device *ids* by
    // design; its plans must be bit-identical across any relabeling
    // of the island structure.
    ComputationGraph g = testutil::fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology ta(contiguousConfig());
    ClusterTopology tb(stripedConfig());
    HardwareModel ha(ta);
    HardwareModel hb(tb);
    const ExecutionPlan a = SpindleWithoutPlacement(ha).buildPlan(meta);
    const ExecutionPlan b = SpindleWithoutPlacement(hb).buildPlan(meta);
    expectSameStructure(a, b);
    for (std::size_t i = 0; i < a.waves.size(); ++i)
        for (std::size_t j = 0; j < a.waves[i].entries.size(); ++j)
            EXPECT_EQ(a.waves[i].entries[j].devices,
                      b.waves[i].entries[j].devices);
}

TEST(Renumbering, ContiguousRunsEquivalentUpToPermutationOnBlocks)
{
    // Swapping the order of two equal-size contiguous islands is a
    // topology automorphism composed with a relabel; the historical
    // contiguous-runs placement keeps all structural invariants
    // (spans, comm estimates, the multiset of per-device loads) even
    // though individual windows may land on the mirrored island.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    PlannerOptions options; // ContiguousRuns default

    ClusterConfig swapped;
    swapped.islands.resize(2);
    for (std::uint32_t j = 0; j < 8; ++j)
        swapped.islands[0].devices.push_back(8 + j);
    for (std::uint32_t j = 0; j < 8; ++j)
        swapped.islands[1].devices.push_back(j);

    PlannerOutput a = planOn(contiguousConfig(), g, options);
    PlannerOutput b = planOn(swapped, g, options);
    expectSameStructure(a.plan, b.plan);
    EXPECT_DOUBLE_EQ(a.placement.estimatedCommSeconds,
                     b.placement.estimatedCommSeconds);
    std::vector<double> pa = a.placement.peakBytes;
    std::vector<double> pb = b.placement.peakBytes;
    std::sort(pa.begin(), pa.end());
    std::sort(pb.begin(), pb.end());
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t d = 0; d < pa.size(); ++d)
        EXPECT_DOUBLE_EQ(pa[d], pb[d]);
}

} // namespace
} // namespace spindle
