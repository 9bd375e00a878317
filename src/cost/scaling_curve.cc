#include "cost/scaling_curve.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace spindle {

ScalingCurve::ScalingCurve(std::vector<std::uint32_t> valid_ns,
                           std::vector<double> times)
    : ns_(std::move(valid_ns)), times_(std::move(times))
{
    fatalIf(ns_.empty() || ns_.size() != times_.size(),
            "ScalingCurve: mismatched or empty grid");
    fatalIf(ns_.front() < 1, "ScalingCurve: allocations start at 1");
    for (std::size_t i = 1; i < ns_.size(); ++i)
        fatalIf(ns_[i] <= ns_[i - 1], "ScalingCurve: grid must ascend");
    for (double t : times_)
        fatalIf(t <= 0, "ScalingCurve: times must be positive");

    // Theorem 1 requires T positive and non-increasing; clamp any
    // estimation wiggle (e.g. a kernel-regime penalty) downward.
    for (std::size_t i = 1; i < times_.size(); ++i)
        times_[i] = std::min(times_[i], times_[i - 1]);

    index_of_.assign(ns_.back() + 1, -1);
    for (std::size_t i = 0; i < ns_.size(); ++i)
        index_of_[ns_[i]] = static_cast<std::int32_t>(i);
}

bool
ScalingCurve::isValid(std::uint32_t n) const
{
    return n < index_of_.size() && index_of_[n] >= 0;
}

double
ScalingCurve::timeAt(std::uint32_t n) const
{
    if (!isValid(n))
        fatal(strCat("timeAt: n=", n, " is not a valid allocation"));
    return times_[static_cast<std::size_t>(index_of_[n])];
}

std::uint32_t
ScalingCurve::nextValidAbove(std::uint32_t n) const
{
    auto it = std::upper_bound(ns_.begin(), ns_.end(), n);
    return it == ns_.end() ? 0 : *it;
}

double
ScalingCurve::eval(double n) const
{
    panicIf(n <= 0, "eval: n must be positive");
    const double n1 = static_cast<double>(ns_.front());
    if (n <= n1)
        return times_.front() * n1 / n; // hyperbolic extension
    if (n >= static_cast<double>(ns_.back()))
        return times_.back();

    // Linear interpolation in n between bracketing grid points.
    std::size_t hi = 1;
    while (static_cast<double>(ns_[hi]) < n)
        ++hi;
    const double n_lo = ns_[hi - 1], n_hi = ns_[hi];
    const double t_lo = times_[hi - 1], t_hi = times_[hi];
    const double w = (n - n_lo) / (n_hi - n_lo);
    return t_lo + w * (t_hi - t_lo);
}

double
ScalingCurve::inverse(double t) const
{
    // Negated form so NaN is rejected too (the former linear scan
    // ended in panic("unreachable") for NaN; the binary search would
    // silently interpolate with it).
    panicIf(!(t > 0), "inverse: t must be positive");
    if (t >= times_.front()) {
        // Slower than the smallest valid allocation: hyperbolic
        // region, n = n_1 * T(n_1) / t (possibly < 1).
        return static_cast<double>(ns_.front()) * times_.front() / t;
    }
    if (t <= times_.back())
        return static_cast<double>(ns_.back());
    // Find the grid segment with T(n_lo) >= t >= T(n_hi) and apply
    // the linear combination of Eq. (11). times_ is non-increasing, so
    // the first grid point with time <= t is a binary search
    // (partition_point over "time > t").
    auto seg = std::partition_point(
        times_.begin() + 1, times_.end(),
        [&](double grid_t) { return grid_t > t; });
    panicIf(seg == times_.end(), "inverse: unreachable");
    const std::size_t i = static_cast<std::size_t>(seg - times_.begin());
    const double n_lo = ns_[i - 1], n_hi = ns_[i];
    const double t_lo = times_[i - 1], t_hi = times_[i];
    if (t_lo == t_hi)
        return n_lo;
    return ((t_lo - t) * n_hi + (t - t_hi) * n_lo) / (t_lo - t_hi);
}

double
ScalingCurve::scalability(std::uint32_t n) const
{
    return times_.front() / timeAt(n);
}

std::pair<std::uint32_t, std::uint32_t>
ScalingCurve::bracketValid(double n_star) const
{
    panicIf(n_star <= 0, "bracketValid: n* must be positive");
    if (n_star < static_cast<double>(ns_.front()))
        return {0u, ns_.front()}; // dummy lower allocation (§3.3)
    if (n_star >= static_cast<double>(ns_.back()))
        return {ns_.back(), ns_.back()};
    std::size_t hi = 1;
    while (static_cast<double>(ns_[hi]) < n_star)
        ++hi;
    if (static_cast<double>(ns_[hi]) == n_star)
        return {ns_[hi], ns_[hi]}; // exactly on the grid
    return {ns_[hi - 1], ns_[hi]};
}

} // namespace spindle
