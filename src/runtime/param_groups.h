/**
 * @file
 * Parameter holders and the device-group pool (paper §3.6 step 3).
 *
 * Every parameter set W_j is activated by one or more wave entries,
 * possibly from different tasks (sub-model sharing). Before training,
 * Spindle scans the plan to determine the device group D_i on which
 * each W_j must be gradient-synchronized, then manages parameters
 * with identical groups collectively: the pool maps each distinct
 * device group to the total parameter bytes synchronized within it.
 *
 * The scan happens once per placed plan, as a ParamHolderIndex: dense
 * key ids, each key's distinct holder entries and bytes, and each
 * key's device group, computed once per distinct holder list. Both
 * consumers read that one index — the pool here and the per-device
 * memory ledger (peakMemoryPerDevice, runtime/engine.h), which
 * shards optimizer state over the same groups.
 */

#ifndef SPINDLE_RUNTIME_PARAM_GROUPS_H
#define SPINDLE_RUNTIME_PARAM_GROUPS_H

#include <vector>

#include "hardware/collective.h"
#include "planner/execution_plan.h"

namespace spindle {

/** One wave entry hosting a parameter set. */
struct ParamHolder
{
    /** Index into ParamHolderIndex::entries. */
    std::uint32_t entry = 0;

    /** Largest parameter bytes among the entry's member operators
     *  carrying the key. */
    double bytes = 0;
};

/**
 * Flat parameter-holder index of one placed plan. Keys are the
 * paramDedupKey values of operators with parameters (shared ParamKeys
 * and per-operator private keys), numbered densely in first-seen
 * order (waves, then entries, then member operators); the per-key
 * vectors are indexed by that number. Keys with identical holder
 * lists share one device group, counted once with a per-device stamp
 * instead of a union per operator.
 *
 * Holds pointers into the plan's wave entries: the plan must outlive
 * the index.
 */
struct ParamHolderIndex
{
    /**
     * Scan @p plan. Panics ("plan is not placed") on an entry with no
     * devices or with a device id >= plan.numDevices, so consumers
     * may index per-device arrays by every entry device.
     */
    static ParamHolderIndex build(const MetaGraph &graph,
                                  const ExecutionPlan &plan);

    std::uint32_t numDevices = 0;

    /** Every wave entry of the plan, in wave order. */
    std::vector<const WaveEntry *> entries;

    /** Per key: its paramDedupKey value. */
    std::vector<std::int64_t> rawKey;

    /** Per key: its distinct holder entries, in wave order. */
    std::vector<std::vector<ParamHolder>> holders;

    /** Per key: its largest parameter bytes over all holders. */
    std::vector<double> bytes;

    /** Per key: its device group, an index into groupDevices. */
    std::vector<std::uint32_t> group;

    /** Per group: the union of its holders' devices, ascending. */
    std::vector<DeviceSet> groupDevices;

    /** Size of the device group of key @p k. */
    std::size_t groupSize(std::size_t k) const
    {
        return groupDevices[group[k]].size();
    }
};

/** One device group and the parameter bytes it synchronizes. */
struct ParamGroup
{
    DeviceSet devices;
    double bytes = 0;

    /** Number of distinct parameter sets managed by this group. */
    std::uint32_t numParams = 0;

    /**
     * Island decomposition of `devices`, cached at pool build when a
     * topology was supplied (the group set is frozen for the whole
     * training run, so the runtime's per-iteration collective
     * scheduling must not re-derive it). Carries everything the
     * sharded-hierarchical algorithm needs too — the smallest-slice
     * size capping its concurrent inter-island rings is a
     * GroupDecomposition query (minSliceSize()). Null without a
     * topology.
     */
    const GroupDecomposition *decomposition() const
    {
        return has_decomp ? &decomp : nullptr;
    }

    GroupDecomposition decomp;
    bool has_decomp = false;
};

/**
 * The global parameter device-group pool {D_i -> {W_j}}.
 */
class ParameterGroupPool
{
  public:
    /**
     * Scan a placed plan: for every parameter set (shared ParamKey
     * or per-operator private parameters), the group is the union of
     * the devices of every wave entry hosting it. When @p topo is
     * given, each fused group's island decomposition is computed
     * once and cached on the group.
     */
    static ParameterGroupPool build(const MetaGraph &graph,
                                    const ExecutionPlan &plan,
                                    const ClusterTopology *topo = nullptr);

    /** The same pool from an already built holder index. */
    static ParameterGroupPool build(const ParamHolderIndex &index,
                                    const ClusterTopology *topo = nullptr);

    const std::vector<ParamGroup> &groups() const { return groups_; }

    /** Bytes needing cross-device sync (groups of size > 1). */
    double totalSyncBytes() const;

  private:
    std::vector<ParamGroup> groups_;
};

} // namespace spindle

#endif // SPINDLE_RUNTIME_PARAM_GROUPS_H
