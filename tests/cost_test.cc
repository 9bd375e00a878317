/**
 * @file
 * Unit tests for cost/: piecewise alpha-beta fitting (Appendix A),
 * scaling curves with Eq. (11) inversion, and the scalability
 * estimator (§3.2).
 */

#include <gtest/gtest.h>

#include "cost/estimator.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

TEST(AlphaBeta, ExactFitThroughSamples)
{
    // Samples from t = 2 + 8/n are reproduced exactly at the knots
    // and in between.
    std::vector<double> ns{1, 2, 4, 8};
    std::vector<double> ts;
    for (double n : ns)
        ts.push_back(2 + 8 / n);
    PiecewiseAlphaBeta curve = PiecewiseAlphaBeta::fit(ns, ts);
    EXPECT_EQ(curve.numPieces(), 3u);
    for (double n : {1.0, 1.5, 2.0, 3.0, 6.0, 8.0})
        EXPECT_NEAR(curve.eval(n), 2 + 8 / n, 1e-9);
}

TEST(AlphaBeta, SinglePieceLeastSquares)
{
    std::vector<double> ns{1, 2, 4, 8};
    std::vector<double> ts{10, 6, 4, 3};
    PiecewiseAlphaBeta curve =
        PiecewiseAlphaBeta::fit(ns, ts, /*single_piece=*/true);
    EXPECT_EQ(curve.numPieces(), 1u);
    // t = a + b/n least squares: exact because data is affine in 1/n
    // (t = 2 + 8/n).
    EXPECT_NEAR(curve.eval(2), 6.0, 1e-9);
}

TEST(AlphaBeta, PiecewiseBeatsSinglePieceOnRegimeChange)
{
    // A kink at n=4 (kernel-regime change) is captured by the
    // piecewise fit but averaged away by the single-piece fit.
    std::vector<double> ns{1, 2, 4, 8, 16};
    std::vector<double> ts{16, 8, 4, 3.5, 3.25}; // flattens past n=4
    PiecewiseAlphaBeta pw = PiecewiseAlphaBeta::fit(ns, ts);
    PiecewiseAlphaBeta sp = PiecewiseAlphaBeta::fit(ns, ts, true);
    double pw_err = 0, sp_err = 0;
    for (std::size_t i = 0; i < ns.size(); ++i) {
        pw_err += std::abs(pw.eval(ns[i]) - ts[i]);
        sp_err += std::abs(sp.eval(ns[i]) - ts[i]);
    }
    EXPECT_LT(pw_err, 1e-9);
    EXPECT_GT(sp_err, 0.1);
}

TEST(AlphaBeta, HyperbolicExtensionBelowFirstKnot)
{
    PiecewiseAlphaBeta curve = PiecewiseAlphaBeta::fit({2, 4}, {6, 4});
    // Below n=2 the curve extends as T(2) * 2 / n.
    EXPECT_NEAR(curve.eval(1), 12.0, 1e-9);
    EXPECT_NEAR(curve.eval(0.5), 24.0, 1e-9);
    // Above the last knot it clamps to the final piece.
    EXPECT_NEAR(curve.eval(100), curve.pieces().back().eval(100), 1e-9);
}

TEST(AlphaBeta, RejectsNonAscendingSamples)
{
    EXPECT_DEATH(PiecewiseAlphaBeta::fit({2, 2}, {1, 1}), "ascend");
}

TEST(ScalingCurve, ClampsToNonIncreasing)
{
    // A regime penalty can make raw samples non-monotone; the curve
    // clamps them (Theorem 1 requires non-increasing T).
    ScalingCurve curve({1, 2, 4, 8}, {10, 6, 7, 5});
    EXPECT_DOUBLE_EQ(curve.timeAt(4), 6.0);
    EXPECT_DOUBLE_EQ(curve.timeAt(8), 5.0);
}

TEST(ScalingCurve, EvalInterpolatesLinearlyInN)
{
    ScalingCurve curve({1, 2, 4}, {10, 6, 4});
    EXPECT_DOUBLE_EQ(curve.eval(3), 5.0);
    EXPECT_DOUBLE_EQ(curve.eval(2), 6.0);
    EXPECT_DOUBLE_EQ(curve.eval(8), 4.0); // clamps above max
}

TEST(ScalingCurve, HyperbolicBelowMinValid)
{
    ScalingCurve curve({2, 4}, {6, 4});
    EXPECT_DOUBLE_EQ(curve.eval(1), 12.0);
    // inverse of a time slower than T(min) lands below minValid.
    EXPECT_NEAR(curve.inverse(12.0), 1.0, 1e-9);
    EXPECT_NEAR(curve.inverse(24.0), 0.5, 1e-9);
}

TEST(ScalingCurve, InverseMatchesEq11)
{
    ScalingCurve curve({1, 2, 4}, {10, 6, 4});
    // t = 5 lies between T(2)=6 and T(4)=4: Eq. (11) gives n = 3.
    EXPECT_NEAR(curve.inverse(5.0), 3.0, 1e-9);
    // Faster than the fastest time: clamp to maxValid.
    EXPECT_DOUBLE_EQ(curve.inverse(1.0), 4.0);
}

TEST(ScalingCurve, BracketValid)
{
    ScalingCurve curve({1, 2, 4, 8}, {10, 6, 4, 3});
    EXPECT_EQ(curve.bracketValid(3.0), (std::pair<std::uint32_t,
                                        std::uint32_t>{2, 4}));
    EXPECT_EQ(curve.bracketValid(4.0), (std::pair<std::uint32_t,
                                        std::uint32_t>{4, 4}));
    EXPECT_EQ(curve.bracketValid(0.5), (std::pair<std::uint32_t,
                                        std::uint32_t>{0, 1}));
    EXPECT_EQ(curve.bracketValid(9.0), (std::pair<std::uint32_t,
                                        std::uint32_t>{8, 8}));
}

TEST(ScalingCurve, Scalability)
{
    ScalingCurve curve({1, 2, 4}, {10, 5, 2.5});
    EXPECT_DOUBLE_EQ(curve.scalability(1), 1.0);
    EXPECT_DOUBLE_EQ(curve.scalability(4), 4.0);
}

/** eval/inverse are mutually consistent across the curve. */
class InverseRoundtrip : public ::testing::TestWithParam<double>
{
};

TEST_P(InverseRoundtrip, EvalOfInverseReturnsT)
{
    ScalingCurve curve({1, 2, 4, 8, 16}, {16, 9, 5, 3, 2});
    const double t = GetParam();
    const double n = curve.inverse(t);
    EXPECT_NEAR(curve.eval(n), t, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Times, InverseRoundtrip,
                         ::testing::Values(2.5, 3.0, 4.0, 5.0, 7.0, 9.0,
                                           12.0, 16.0, 20.0, 64.0));

TEST(Estimator, CurveMatchesOracleAtProfilePoints)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ScalabilityEstimator est(hw);

    const MetaOp &m = meta.metaOp(0);
    ScalingCurve curve = est.estimate(m, 16);
    for (std::uint32_t n : est.profilePoints(m, 16)) {
        // The fitted curve interpolates the profiled samples, modulo
        // the monotone clamp.
        EXPECT_LE(curve.timeAt(n), hw.metaOpTime(m, n) * (1 + 1e-9));
    }
}

TEST(Estimator, GridCoversAllValidAllocations)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ScalabilityEstimator est(hw);
    const MetaOp &m = meta.metaOp(0);
    ScalingCurve curve = est.estimate(m, 16);
    EXPECT_EQ(curve.validNs(), hw.validAllocations(m, 16));
}

TEST(Estimator, EstimateAllIndexedByMetaOpId)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ScalabilityEstimator est(hw);
    auto curves = est.estimateAll(meta, 16);
    ASSERT_EQ(curves.size(), meta.numMetaOps());
    for (std::size_t i = 0; i < curves.size(); ++i)
        EXPECT_GT(curves[i].timeAt(curves[i].minValid()), 0);
}

} // namespace
} // namespace spindle
