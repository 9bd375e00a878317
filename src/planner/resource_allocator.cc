#include "planner/resource_allocator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace spindle {

ResourceAllocator::ResourceAllocator(const MetaGraph &graph,
                                     const std::vector<ScalingCurve> &curves,
                                     std::uint32_t num_devices,
                                     AllocatorOptions options)
    : graph_(graph), curves_(curves), num_devices_(num_devices),
      options_(options)
{
    fatalIf(num_devices_ == 0, "ResourceAllocator: empty cluster");
    fatalIf(curves_.size() != graph_.numMetaOps(),
            "ResourceAllocator: one curve per MetaOp required");
}

MpspSolution
ResourceAllocator::solveContinuous(const std::vector<MetaOpId> &level) const
{
    fatalIf(level.empty(), "solveContinuous: empty level");
    const double n_total = static_cast<double>(num_devices_);

    // Alg. 2 line 1-2: bracket C~* between "everything fully
    // parallel" and "everything serial on one device".
    double c_low = 0, c_high = 0;
    for (MetaOpId m : level) {
        const ScalingCurve &curve = curves_[m];
        const double l = static_cast<double>(graph_.metaOp(m).numOps());
        const double t_min =
            curve.eval(std::min<double>(n_total, curve.maxValid()));
        c_low = std::max(c_low, t_min * l);
        c_high += curve.timeAt(curve.minValid()) * l;
    }
    c_high = std::max(c_high, c_low * (1 + options_.bisectionRelTol));

    auto alloc_sum = [&](double c) {
        double sum = 0;
        for (MetaOpId m : level) {
            const double l = static_cast<double>(graph_.metaOp(m).numOps());
            sum += curves_[m].inverse(c / l);
        }
        return sum;
    };

    // If even the fastest completion needs fewer than N devices, the
    // level saturates: every MetaOp takes its max useful allocation.
    if (alloc_sum(c_low) <= n_total) {
        MpspSolution sol;
        sol.cStar = c_low;
        for (MetaOpId m : level)
            sol.nStar.push_back(curves_[m].inverse(
                c_low / static_cast<double>(graph_.metaOp(m).numOps())));
        return sol;
    }

    // Alg. 2 lines 3-9: bisection on C~ until the summed fractional
    // allocations meet the capacity N.
    for (std::uint32_t it = 0; it < options_.maxBisectionIters; ++it) {
        const double c_mid = 0.5 * (c_low + c_high);
        if (alloc_sum(c_mid) < n_total)
            c_high = c_mid;
        else
            c_low = c_mid;
        if (c_high - c_low <= options_.bisectionRelTol * c_high)
            break;
    }

    MpspSolution sol;
    sol.cStar = c_high;
    double sum = 0;
    for (MetaOpId m : level) {
        const double l = static_cast<double>(graph_.metaOp(m).numOps());
        sol.nStar.push_back(curves_[m].inverse(sol.cStar / l));
        sum += sol.nStar.back();
    }
    // Renormalize the tiny bisection residue so Sum n* == N holds
    // exactly (Theorem 1's second condition).
    if (sum > 0 && sum > n_total) {
        for (double &n : sol.nStar)
            n *= n_total / sum;
    }
    return sol;
}

MetaOpAllocation
ResourceAllocator::discretize(MetaOpId m, double n_star,
                              double c_star) const
{
    const ScalingCurve &curve = curves_[m];
    const std::int64_t num_ops = graph_.metaOp(m).numOps();
    MetaOpAllocation out;
    out.metaOp = m;

    auto [n_lo, n_hi] = curve.bracketValid(n_star);

    if (n_lo == 0) {
        // n* below the smallest valid allocation: the paired lower
        // tuple is a dummy <0, ., .> and is ignored (§3.3); all
        // operators run on the smallest valid allocation, finishing
        // no later than C~* because T(n_hi) < T(n*).
        out.tuples.push_back({n_hi, -1, num_ops});
        return out;
    }
    if (n_lo == n_hi) {
        out.tuples.push_back({n_lo, -1, num_ops});
        return out;
    }

    // Conds. (10a)/(10b): split L into l_hi ops on n_hi devices and
    // l_lo ops on n_lo devices such that the serial execution of the
    // two tuples lasts exactly C~*.
    const double t_lo = curve.timeAt(n_lo);
    const double t_hi = curve.timeAt(n_hi);
    const double l_total = static_cast<double>(num_ops);
    double l_hi_real;
    if (nearlyEqual(t_lo, t_hi)) {
        l_hi_real = l_total;
    } else {
        l_hi_real = (c_star - t_lo * l_total) / (t_hi - t_lo);
        l_hi_real = std::clamp(l_hi_real, 0.0, l_total);
    }

    // Reinstate l as integers: round, preserving (10a) exactly and
    // introducing only minor bias into (10b).
    std::int64_t l_hi = std::clamp<std::int64_t>(
        roundNearest(l_hi_real), 0, num_ops);
    std::int64_t l_lo = num_ops - l_hi;

    if (l_hi > 0)
        out.tuples.push_back({n_hi, -1, l_hi});
    if (l_lo > 0)
        out.tuples.push_back({n_lo, -1, l_lo});
    return out;
}

LevelAllocation
ResourceAllocator::allocateLevel(const std::vector<MetaOpId> &level) const
{
    LevelAllocation out;
    out.metaOps = level;
    out.continuous = solveContinuous(level);
    out.plans.reserve(level.size());
    for (std::size_t i = 0; i < level.size(); ++i) {
        out.plans.push_back(discretize(level[i], out.continuous.nStar[i],
                                       out.continuous.cStar));
    }
    return out;
}

std::vector<LevelAllocation>
ResourceAllocator::allocateAll() const
{
    std::vector<LevelAllocation> out;
    out.reserve(graph_.numLevels());
    for (std::size_t k = 0; k < graph_.numLevels(); ++k)
        out.push_back(allocateLevel(graph_.level(k)));
    return out;
}

double
ResourceAllocator::theoreticalOptimum() const
{
    double total = 0;
    for (std::size_t k = 0; k < graph_.numLevels(); ++k)
        total += solveContinuous(graph_.level(k)).cStar;
    return total;
}

} // namespace spindle
