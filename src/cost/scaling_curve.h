/**
 * @file
 * Scaling curve of one MetaOp (paper §3.2, Fig. 4): the estimated
 * per-operator execution time T_m(n) over the *valid* allocation
 * grid, with the continuous evaluation and inversion operations the
 * resource allocator's bisection search consumes (Appendix B).
 */

#ifndef SPINDLE_COST_SCALING_CURVE_H
#define SPINDLE_COST_SCALING_CURVE_H

#include <cstdint>
#include <vector>

#include "cost/alpha_beta.h"

namespace spindle {

/**
 * Per-MetaOp scaling curve.
 *
 * The curve is represented on the MetaOp's valid allocations
 * n_1 < n_2 < ... < n_k with per-operator times t_1 >= ... >= t_k
 * (enforced non-increasing, as Theorem 1 requires). Between grid
 * points, evaluation and inversion are linear in n — exactly the
 * Find_Inverse_Value interpolation of Appendix B, Eq. (11). Below
 * n_1 the curve extends hyperbolically (t = t_1 * n_1 / n), which
 * gives the continuous MPSP relaxation meaning for fractional
 * allocations smaller than one device.
 *
 * Lookups are planner hot-path operations (placement and scheduling
 * query the same (MetaOp, n) pairs hundreds of times per plan), so
 * grid queries go through a dense n -> grid-index table. A curve is
 * immutable after construction, so concurrent const lookups are
 * thread-safe (the plan cache shares curves between planners).
 */
class ScalingCurve
{
  public:
    /**
     * @param valid_ns ascending valid allocations (n_1 >= 1)
     * @param times per-operator time at each valid allocation; values
     *        are clamped to be non-increasing (running minimum)
     */
    ScalingCurve(std::vector<std::uint32_t> valid_ns,
                 std::vector<double> times);

    const std::vector<std::uint32_t> &validNs() const { return ns_; }

    std::uint32_t minValid() const { return ns_.front(); }
    std::uint32_t maxValid() const { return ns_.back(); }

    /** True iff @p n is on the valid-allocation grid. */
    bool isValid(std::uint32_t n) const;

    /** Grid time at a valid allocation; fatal if @p n is not valid. */
    double timeAt(std::uint32_t n) const;

    /**
     * Smallest valid allocation strictly greater than @p n, or 0
     * when @p n is already at or above maxValid() (the scheduler's
     * resource-extension query, O(log k) instead of a grid scan).
     */
    std::uint32_t nextValidAbove(std::uint32_t n) const;

    /** Continuous T(n) for fractional n > 0 (see class comment). */
    double eval(double n) const;

    /**
     * T^{-1}(t): the fractional allocation at which the curve
     * reaches time @p t (Appendix B, Find_Inverse_Value).
     * Clamps to maxValid() when @p t is below the fastest time.
     */
    double inverse(double t) const;

    /** Resource scalability sigma(n) = T(n_1) / T(n) (Fig. 4). */
    double scalability(std::uint32_t n) const;

    /**
     * Closest valid allocations bracketing a fractional n*:
     * returns {floor, ceil} on the valid grid; floor is 0 (dummy,
     * §3.3) when n* lies below the smallest valid allocation.
     */
    std::pair<std::uint32_t, std::uint32_t>
    bracketValid(double n_star) const;

  private:
    std::vector<std::uint32_t> ns_;
    std::vector<double> times_;

    /** Dense n -> index into ns_/times_ (-1 = not valid). */
    std::vector<std::int32_t> index_of_;
};

} // namespace spindle

#endif // SPINDLE_COST_SCALING_CURVE_H
