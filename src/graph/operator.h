/**
 * @file
 * Operator-level description of an MT MM computation graph node
 * (paper §3, problem formulation).
 *
 * Each node i in the unified computation graph G = (V, E) is a
 * computational operator: typically one Transformer layer of a
 * modality encoder or of the cross-modal module. The description
 * carries everything the planner and runtime need — workload type and
 * input data size (the contraction criteria of §3.1), forward FLOPs,
 * parameter and activation footprints, the owning task, and the
 * identity of the (possibly shared) parameter set for inter-task
 * gradient synchronization (§3.6 step 3).
 */

#ifndef SPINDLE_GRAPH_OPERATOR_H
#define SPINDLE_GRAPH_OPERATOR_H

#include <cstdint>
#include <string>

namespace spindle {

/** Dense integer id of an operator within one ComputationGraph. */
using OpId = std::int32_t;

/** Identity of a parameter set; ops sharing it share weights. */
using ParamKey = std::int32_t;

/** Sentinel: operator holds no shared parameter set. */
constexpr ParamKey kNoParam = -1;

/**
 * Workload category of an operator. Two operators contract into the
 * same MetaOp only if their type and input size match (§3.1 crit. 2).
 */
enum class OpType : std::uint8_t
{
    Text,
    Vision,
    Audio,
    Depth,
    Thermal,
    Motion,
    Box,
    LM,          ///< unified language-model (cross-modal) layer
    Adaptor,     ///< lightweight modality adaptor (OFASys-style)
    Contrastive, ///< contrastive-loss cross-modal module (CLIP-style)
    Custom,
};

/** Human-readable name of an OpType. */
const char *opTypeName(OpType type);

/**
 * Input data size of an operator, [batch, sequence, hidden] as in the
 * paper's Fig. 3 (e.g. audio op [8, 229, 768]).
 */
struct TensorShape
{
    std::int64_t batch = 0;
    std::int64_t seq = 0;
    std::int64_t hidden = 0;

    /** Total number of elements. */
    std::int64_t numel() const { return batch * seq * hidden; }

    bool operator==(const TensorShape &other) const = default;

    /** Render as "[b, s, h]". */
    std::string str() const;
};

/**
 * Full description of one computation-graph operator.
 *
 * Workload quantities are for the *forward* pass of this single
 * operator at full (un-partitioned) batch; the hardware model derives
 * backward cost (~2x) and per-device shares from these.
 */
struct OperatorDesc
{
    OpId id = -1;
    std::string name;
    OpType type = OpType::Custom;
    TensorShape input;

    /** Forward FLOPs for one execution of this operator. */
    double flopsFwd = 0;

    /** Bytes of parameters held by this operator. */
    double paramBytes = 0;

    /** Bytes of output activation (the data-flow volume out). */
    double activationBytes = 0;

    /** Owning task (index into the workload's task list). */
    std::int32_t taskId = 0;

    /**
     * Identity of the parameter set. Operators in different tasks
     * carrying the same key share weights and must have gradients
     * synchronized across the devices hosting them (§3.6).
     */
    ParamKey paramKey = kNoParam;
};

/**
 * Dedup key of an operator's parameter storage: a shared set maps to
 * its ParamKey, an unshared operator (kNoParam) to a unique negative
 * key derived from its id. Placement's per-device memory maps, the
 * engine's memory and sync groups and the plan-cache signature are
 * all keyed by it, and placement's FP summation order follows its
 * values.
 */
inline std::int64_t
paramDedupKey(const OperatorDesc &op)
{
    if (op.paramKey != kNoParam)
        return op.paramKey;
    return -(static_cast<std::int64_t>(op.id) + 2);
}

} // namespace spindle

#endif // SPINDLE_GRAPH_OPERATOR_H
