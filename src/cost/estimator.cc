#include "cost/estimator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"

namespace spindle {

ScalabilityEstimator::ScalabilityEstimator(const HardwareModel &hw,
                                           EstimatorOptions options)
    : hw_(hw), options_(options)
{
}

std::vector<std::uint32_t>
ScalabilityEstimator::profilePoints(const MetaOp &m,
                                    std::uint32_t max_devices) const
{
    std::vector<std::uint32_t> valid = hw_.validAllocations(m, max_devices);

    // Island-size boundaries: the TP cap (and hence the invoked
    // kernels) changes where an allocation first outgrows an island,
    // so valid n equal to an island size are profiled exactly. On
    // homogeneous power-of-two islands these coincide with the
    // power-of-two knots below.
    std::vector<std::uint32_t> island_sizes;
    const ClusterTopology &topo = hw_.topology();
    for (std::uint32_t k = 0; k < topo.numIslands(); ++k)
        island_sizes.push_back(topo.islandSizeOf(k));
    std::sort(island_sizes.begin(), island_sizes.end());

    // Power-of-two valid allocations, always including the extremes,
    // mirroring the paper's "several discrete data points".
    std::vector<std::uint32_t> points;
    for (std::uint32_t n : valid) {
        if (isPowerOfTwo(n) || n == valid.front() || n == valid.back() ||
            std::binary_search(island_sizes.begin(), island_sizes.end(),
                               n))
            points.push_back(n);
    }
    return points;
}

ScalingCurve
ScalabilityEstimator::estimate(const MetaOp &m,
                               std::uint32_t max_devices) const
{
    const std::vector<std::uint32_t> points =
        profilePoints(m, max_devices);
    panicIf(points.empty(), "estimate: no profile points");

    std::vector<double> ns, times;
    ns.reserve(points.size());
    times.reserve(points.size());
    for (std::uint32_t n : points) {
        ns.push_back(static_cast<double>(n));
        times.push_back(hw_.metaOpTime(m, n));
    }

    PiecewiseAlphaBeta fitted =
        PiecewiseAlphaBeta::fit(ns, times, !options_.piecewise);

    // Evaluate the fitted model on the full valid grid: profiled
    // knots reproduce their samples; unprofiled valid allocations
    // get the model's interpolation.
    std::vector<std::uint32_t> valid = hw_.validAllocations(m, max_devices);
    std::vector<double> grid_times;
    grid_times.reserve(valid.size());
    for (std::uint32_t n : valid)
        grid_times.push_back(fitted.eval(static_cast<double>(n)));

    return ScalingCurve(std::move(valid), std::move(grid_times));
}

std::vector<ScalingCurve>
ScalabilityEstimator::estimateAll(const MetaGraph &graph,
                                  std::uint32_t max_devices) const
{
    std::vector<ScalingCurve> curves;
    curves.reserve(graph.numMetaOps());
    for (const MetaOp &m : graph.metaOps())
        curves.push_back(estimate(m, max_devices));
    return curves;
}

} // namespace spindle
