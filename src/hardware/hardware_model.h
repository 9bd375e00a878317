/**
 * @file
 * Ground-truth operator timing oracle — the stand-in for profiling
 * real kernels on the paper's A800 cluster.
 *
 * For an operator with forward FLOPs F executed on n devices under a
 * hybrid DP x TP configuration, the model charges
 *
 *   t = launch + (F/n) / (peak * eff(F/n)) + tp_comm
 *
 * where eff(w) is a saturating, *piecewise* kernel-efficiency curve:
 * small per-device workloads underutilize the GPU, and crossing a
 * kernel-regime boundary applies a discrete penalty. This reproduces
 * the paper's two load-bearing observations (§3.2, Appendix A):
 * light MetaOps stop scaling after a few devices, and the execution
 * time function T_m(n) is piecewise in n because "the invoked kernels
 * may vary across different per-device workloads".
 *
 * The model also defines which allocations are *valid* for an
 * operator (§3.3: DP degree must divide the global batch; TP degree
 * is a bounded power of two), which the allocator's bi-point
 * discretization consumes.
 */

#ifndef SPINDLE_HARDWARE_HARDWARE_MODEL_H
#define SPINDLE_HARDWARE_HARDWARE_MODEL_H

#include <vector>

#include "common/sharded_memo.h"
#include "graph/meta_graph.h"
#include "hardware/collective.h"
#include "hardware/topology.h"

namespace spindle {

/** Hybrid parallelization of one operator over n = dp * tp devices. */
struct ParallelConfig
{
    std::uint32_t dp = 1; ///< data-parallel degree (divides batch)
    std::uint32_t tp = 1; ///< tensor-parallel degree (power of two)

    std::uint32_t devices() const { return dp * tp; }
    bool operator==(const ParallelConfig &other) const = default;
};

/** Tunables of the analytical GPU model. */
struct HardwareParams
{
    /** Backward-pass FLOPs as a multiple of forward FLOPs. */
    double bwdFlopsFactor = 2.0;

    /** Fixed per-operator overhead per pass (kernel launches). */
    double kernelLaunch = 40 * kMicro;

    /** Per-device FLOPs at which kernel efficiency reaches 50%. */
    double halfEffFlops = 3e10;

    /** Kernel-regime boundaries (per-device forward FLOPs) and the
     *  discrete efficiency penalty applied below each of them. */
    double smallKernelFlops = 1e9;
    double smallKernelFactor = 0.8;
    double tinyKernelFlops = 1.5e8;
    double tinyKernelFactor = 0.6;

    /** Efficiency floor. */
    double minEfficiency = 0.02;

    /** Largest tensor-parallel degree considered. */
    std::uint32_t maxTpDegree = 8;
};

/**
 * Deterministic cost oracle over a concrete cluster.
 *
 * All times are seconds for *one* operator (one member of a MetaOp);
 * MetaOp totals multiply by L_m. TP collectives are assumed to stay
 * within one island (the placement pass enforces this preference), so
 * they are charged at the intra-island link class.
 */
class HardwareModel
{
  public:
    HardwareModel(const ClusterTopology &topo, HardwareParams params = {});

    /** Piecewise saturating kernel efficiency for a per-device load. */
    double efficiency(double per_device_flops) const;

    /** All valid parallel configs with dp * tp == n for @p op. */
    std::vector<ParallelConfig> configsFor(const OperatorDesc &op,
                                           std::uint32_t n) const;

    /** True iff some valid config uses exactly n devices. */
    bool isValidAllocation(const OperatorDesc &op, std::uint32_t n) const;

    /** Ascending list of valid n in [1, max_n] (§3.3 constraint). */
    std::vector<std::uint32_t> validAllocations(const OperatorDesc &op,
                                                std::uint32_t max_n) const;

    /** Cheapest valid config for exactly n devices; fatal if none. */
    ParallelConfig bestConfig(const OperatorDesc &op,
                              std::uint32_t n) const;

    /** Forward time of one operator under an explicit config. */
    double opTimeFwd(const OperatorDesc &op, ParallelConfig cfg) const;

    /** Forward time under the best config for n devices. */
    double opTimeFwd(const OperatorDesc &op, std::uint32_t n) const;

    /** Backward time (bwdFlopsFactor x compute, same comm). */
    double opTimeBwd(const OperatorDesc &op, ParallelConfig cfg) const;

    /**
     * Full training-step time of one operator (forward + backward)
     * on n devices under the best config. This is the paper's
     * T_m(n) sample for one member operator.
     */
    double opTime(const OperatorDesc &op, std::uint32_t n) const;

    /** T_m(n) for one member operator of MetaOp @p m. */
    double metaOpTime(const MetaOp &m, std::uint32_t n) const;

    /** Valid allocations for a MetaOp (same rule as its members). */
    std::vector<std::uint32_t> validAllocations(const MetaOp &m,
                                                std::uint32_t max_n) const;

    const HardwareParams &params() const { return params_; }
    const ClusterTopology &topology() const { return topo_; }
    const CollectiveModel &collectives() const { return coll_; }

  private:
    double passTime(double flops, double act_bytes,
                    ParallelConfig cfg) const;

    /**
     * Workload signature of an operator for the lookup caches: the
     * exact set of fields configsFor()/opTimeFwd() read. Two ops
     * with equal signatures get identical configs and times, so
     * memoized answers are value-transparent. Placement synthesizes
     * a fresh memberDesc() per query, hence keying on fields rather
     * than addresses.
     */
    struct OpSignature
    {
        std::int64_t batch = 0;
        std::int64_t hidden = 0;
        double flopsFwd = 0;
        double activationBytes = 0;
        std::uint32_t n = 0;

        bool operator==(const OpSignature &other) const = default;
    };

    struct OpSignatureHash
    {
        std::size_t operator()(const OpSignature &sig) const;
    };

    static OpSignature signatureOf(const OperatorDesc &op,
                                   std::uint32_t n);

    const ClusterTopology &topo_;
    HardwareParams params_;
    CollectiveModel coll_;

    /** Memo of bestConfig() answers (planner hot path; placement
     *  asks for the same (MetaOp workload, n) hundreds of times).
     *  Pure-function cache — never stale; striped-lock, so planners
     *  running on concurrent PlanService workers may query it
     *  concurrently. */
    StripedMemo<OpSignature, ParallelConfig, OpSignatureHash>
        best_config_memo_;

    /** Memo of validAllocations() grids, keyed with n = max_n
     *  (striped-lock, same concurrency contract as above). */
    StripedMemo<OpSignature, std::vector<std::uint32_t>,
                OpSignatureHash> valid_allocs_memo_;
};

} // namespace spindle

#endif // SPINDLE_HARDWARE_HARDWARE_MODEL_H
