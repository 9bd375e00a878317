/**
 * @file
 * Per-device memory accounting (paper §3.5 "Device Memory Balance",
 * Appendix G).
 *
 * A device hosting a MetaOp slice holds, for each member operator:
 * its parameter shard (divided by the TP degree), the attached
 * gradient/optimizer state, and the activations stashed for the
 * backward pass (all of them — no activation checkpointing — divided
 * across all devices of the slice). Optimizer state may be sharded
 * across DP ranks (ZeRO-1 style), which is how the decoupled
 * baselines survive whole-cluster replication.
 *
 * Two charges exist; placement's is a declared upper bound on the
 * engine's:
 *
 * - The engine's ledger (peakMemoryPerDevice, runtime/engine.h)
 *   charges paramStateShareBytes() with the final groups: ZeRO
 *   shards a parameter's optimizer state over the parameter's whole
 *   gradient-sync group (§3.6 step 3), the union of the devices of
 *   every entry hosting it.
 * - Placement commits entries before the final groups exist, so it
 *   charges paramStateBoundBytes() per operator (placement.cc's slice
 *   signature), the share paramStateBytesPerDevice() sums: optimizer
 *   state divided by the entry's own cfg.dp, where the engine divides
 *   it by the whole group. An entry's group holds at least its own
 *   n = dp x tp devices, so that charge is an upper bound on the
 *   engine's, and the capacity check placement applies never admits
 *   a plan the engine finds over the same limit. The tests
 *   PlacementMemoryBound.* pin the bound exactly (placement peak >=
 *   engine peak on every device) on the Fig. 8 and Tab. 2 workloads.
 */

#ifndef SPINDLE_RUNTIME_MEMORY_MODEL_H
#define SPINDLE_RUNTIME_MEMORY_MODEL_H

#include "graph/meta_graph.h"
#include "hardware/hardware_model.h"

namespace spindle {

/**
 * Gradient + optimizer + master-weight bytes per parameter byte
 * (fp16 params with Adam: 2B grad + 4B master + 8B moments over a 2B
 * parameter = 7x).
 */
inline constexpr double kOptimizerFactor = 7.0;

/** Memory regime: which state ZeRO shards across DP ranks. */
struct MemoryParams
{
    /** Shard optimizer state across DP ranks (ZeRO-1). */
    bool zeroShardOptimizer = true;

    /**
     * Also shard parameters (and gradients) across DP ranks
     * (ZeRO-3 / FSDP). Off by default; required for >= 30B models
     * whose layers would otherwise replicate per DP rank.
     */
    bool zeroShardParams = false;
};

/** Memory cost oracle for MetaOp slices. */
class MemoryModel
{
  public:
    explicit MemoryModel(MemoryParams params = {}) : params_(params) {}

    /**
     * Parameter + optimizer bytes per device for hosting @p l member
     * operators of @p m under @p cfg: @p l times
     * paramStateBoundBytes() of one operator's parameters.
     * Persistent for the iteration.
     */
    double paramStateBytesPerDevice(const MetaOp &m, std::int64_t l,
                                    ParallelConfig cfg) const;

    /**
     * Placement's parameter + optimizer charge per device for a
     * parameter set of @p param_bytes hosted under @p cfg: the
     * parameter shard divides by the TP degree (and the DP degree
     * under ZeRO-3); optimizer state divides by the TP degree and,
     * under ZeRO-1, by cfg.dp — a bound on paramStateShareBytes(),
     * which shards it over the whole group (see the file comment).
     */
    double paramStateBoundBytes(double param_bytes,
                                ParallelConfig cfg) const;

    /**
     * Activation bytes per device stashed by executing @p l member
     * operators of @p m on cfg.devices() devices (freed after the
     * backward pass, so they accumulate until then).
     */
    double activationBytesPerDevice(const MetaOp &m, std::int64_t l,
                                    ParallelConfig cfg) const;

    /** Sum of the two components above. */
    double sliceBytesPerDevice(const MetaOp &m, std::int64_t l,
                               ParallelConfig cfg) const;

    /**
     * Parameter + optimizer bytes one device stores for a parameter
     * set of @p param_bytes hosted under @p cfg, when the set's
     * gradient-sync group spans @p group_size devices: the parameter
     * shard divides by the TP degree (and the DP degree under
     * ZeRO-3); ZeRO-1 shards optimizer state over the whole group,
     * otherwise it divides by the TP degree. The engine's ledger
     * charges this share.
     */
    double paramStateShareBytes(double param_bytes, ParallelConfig cfg,
                                std::size_t group_size) const;

    const MemoryParams &params() const { return params_; }

  private:
    MemoryParams params_;
};

} // namespace spindle

#endif // SPINDLE_RUNTIME_MEMORY_MODEL_H
