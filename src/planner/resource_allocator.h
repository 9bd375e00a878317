/**
 * @file
 * Resource allocator (paper §3.3): per-MetaLevel device allocation.
 *
 * The level sub-problem (Eqs. 4-7) relaxes to a malleable project
 * scheduling problem (MPSP) when devices and operators are
 * continuously divisible. By Theorem 1, the relaxed optimum has all
 * MetaOps start together and finish together at C~*, found by a
 * bisection search over Eq. (9) (Appendix B, Alg. 2). The fractional
 * allocations n*_m are then reinstated as integers by the bi-point
 * discretization of Conds. (10a)/(10b), producing at most two
 * ASL-tuples per MetaOp (plus ignorable dummy allocations).
 */

#ifndef SPINDLE_PLANNER_RESOURCE_ALLOCATOR_H
#define SPINDLE_PLANNER_RESOURCE_ALLOCATOR_H

#include <vector>

#include "cost/scaling_curve.h"
#include "planner/allocation.h"

namespace spindle {

/** Allocator tunables. */
struct AllocatorOptions
{
    /** Relative convergence tolerance of the bisection search. */
    double bisectionRelTol = 1e-7;

    /** Hard cap on bisection iterations (guards degenerate curves). */
    std::uint32_t maxBisectionIters = 200;
};

/**
 * Per-level resource allocator over estimated scaling curves.
 *
 * The allocator never touches the hardware oracle directly: like the
 * paper's planner it sees only the scaling curves from §3.2, whose
 * valid-allocation grids already encode the practical constraints
 * (DP divides batch, TP degree divisibility).
 */
class ResourceAllocator
{
  public:
    /**
     * @param graph contracted MetaGraph
     * @param curves scaling curve per MetaOp, indexed by MetaOpId
     * @param num_devices cluster size N
     */
    ResourceAllocator(const MetaGraph &graph,
                      const std::vector<ScalingCurve> &curves,
                      std::uint32_t num_devices,
                      AllocatorOptions options = {});

    /**
     * Solve the continuous MPSP relaxation for one MetaLevel
     * (Appendix B, Alg. 2). nStar is aligned with @p level.
     */
    MpspSolution solveContinuous(const std::vector<MetaOpId> &level) const;

    /**
     * Full per-level allocation: continuous optimum plus bi-point
     * discretization and rounding of operator counts (§3.3).
     */
    LevelAllocation allocateLevel(const std::vector<MetaOpId> &level) const;

    /** Allocate every MetaLevel of the graph, in level order. */
    std::vector<LevelAllocation> allocateAll() const;

    /**
     * Theoretical lower bound on the iteration's execution span:
     * the sum of per-level continuous optima C~* (Fig. 11 baseline).
     */
    double theoreticalOptimum() const;

    std::uint32_t numDevices() const { return num_devices_; }

  private:
    /** Discretize one MetaOp's fractional n* (Conds. 10a/10b). */
    MetaOpAllocation discretize(MetaOpId m, double n_star,
                                double c_star) const;

    const MetaGraph &graph_;
    const std::vector<ScalingCurve> &curves_;
    std::uint32_t num_devices_;
    AllocatorOptions options_;
};

} // namespace spindle

#endif // SPINDLE_PLANNER_RESOURCE_ALLOCATOR_H
