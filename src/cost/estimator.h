/**
 * @file
 * Scalability estimator (paper §3.2): profile each MetaOp at a few
 * discrete device counts, fit a piecewise alpha-beta curve, and emit
 * the scaling curve the resource allocator optimizes against.
 *
 * In the paper the profiling source is the physical cluster; here it
 * is the analytical HardwareModel oracle (see DESIGN.md §1 for why
 * the substitution preserves behaviour). Profiling is exact: a
 * curve is a pure function of the MetaOp's workload shape and the
 * cluster, which is what lets the plan cache serve curves by shape.
 */

#ifndef SPINDLE_COST_ESTIMATOR_H
#define SPINDLE_COST_ESTIMATOR_H

#include <vector>

#include "cost/scaling_curve.h"
#include "hardware/hardware_model.h"

namespace spindle {

/** Estimator configuration. */
struct EstimatorOptions
{
    /**
     * Fit one alpha-beta piece per adjacent profiled pair (paper's
     * piecewise model) or a single least-squares piece over all
     * samples (the homogeneous baseline of Appendix A).
     */
    bool piecewise = true;
};

/**
 * Produces scaling curves for MetaOps by profiling the hardware
 * oracle and fitting the Appendix A model.
 */
class ScalabilityEstimator
{
  public:
    ScalabilityEstimator(const HardwareModel &hw,
                         EstimatorOptions options = {});

    /**
     * Estimate the scaling curve of MetaOp @p m for allocations up
     * to @p max_devices: profile, fit, then evaluate the fit on the
     * full valid-allocation grid.
     */
    ScalingCurve estimate(const MetaOp &m, std::uint32_t max_devices) const;

    /** Curves for every MetaOp of @p graph, indexed by MetaOpId. */
    std::vector<ScalingCurve> estimateAll(const MetaGraph &graph,
                                          std::uint32_t max_devices) const;

    /**
     * The device counts that estimate() would profile for @p m:
     * the power-of-two valid allocations, the extremes, and any
     * valid allocation equal to an island size (the TP cap — and
     * hence the invoked kernels — changes where an allocation first
     * outgrows an island, so those knots are profiled exactly).
     */
    std::vector<std::uint32_t> profilePoints(const MetaOp &m,
                                             std::uint32_t max_devices) const;

    const HardwareModel &hardware() const { return hw_; }
    const EstimatorOptions &options() const { return options_; }

  private:
    const HardwareModel &hw_;
    EstimatorOptions options_;
};

} // namespace spindle

#endif // SPINDLE_COST_ESTIMATOR_H
