#include "models/task.h"

#include "common/logging.h"
#include "common/units.h"

namespace spindle {

double
transformerFwdFlops(std::int64_t batch, std::int64_t seq,
                    std::int64_t hidden)
{
    // 24 B S H^2 for the MLP + projections, 4 B S^2 H for attention.
    const double b = static_cast<double>(batch);
    const double s = static_cast<double>(seq);
    const double h = static_cast<double>(hidden);
    return 24.0 * b * s * h * h + 4.0 * b * s * s * h;
}

double
transformerParamBytes(std::int64_t hidden)
{
    const double h = static_cast<double>(hidden);
    return 12.0 * h * h * kBytesFp16;
}

double
activationBytesOf(const TensorShape &shape)
{
    return static_cast<double>(shape.numel()) * kBytesFp16;
}

ModuleSpec
transformerStack(std::string name, OpType type, std::int64_t batch,
                 std::int64_t seq, std::int64_t hidden,
                 std::uint32_t layers)
{
    ModuleSpec spec;
    spec.name = std::move(name);
    spec.type = type;
    spec.input = {batch, seq, hidden};
    spec.layers = layers;
    spec.flopsPerLayer = transformerFwdFlops(batch, seq, hidden);
    spec.paramBytesPerLayer = transformerParamBytes(hidden);
    spec.activationBytes = activationBytesOf(spec.input);
    return spec;
}

ModuleSpec
lossModule(std::string name, std::int64_t batch, std::int64_t hidden)
{
    ModuleSpec spec;
    spec.name = std::move(name);
    spec.type = OpType::Contrastive;
    spec.input = {batch, 1, hidden};
    spec.layers = 1;
    // Similarity matrix + softmax over the batch: ~2 B^2 H.
    spec.flopsPerLayer = 2.0 * static_cast<double>(batch) *
                         static_cast<double>(batch) *
                         static_cast<double>(hidden);
    spec.paramBytesPerLayer = 0;
    spec.activationBytes = activationBytesOf(spec.input);
    return spec;
}

SharedModule
WorkloadBuilder::declareShared(const ModuleSpec &spec)
{
    fatalIf(spec.layers == 0, "declareShared: zero layers");
    SharedModule shared;
    shared.keys_.reserve(spec.layers);
    for (std::uint32_t i = 0; i < spec.layers; ++i)
        shared.keys_.push_back(next_key_++);
    return shared;
}

std::int32_t
WorkloadBuilder::addTask(const std::string &name)
{
    fatalIf(built_, "addTask: builder already built");
    task_names_.push_back(name);
    return static_cast<std::int32_t>(task_names_.size()) - 1;
}

NodeRange
WorkloadBuilder::addModule(std::int32_t task, const ModuleSpec &spec,
                           const SharedModule *shared)
{
    fatalIf(built_, "addModule: builder already built");
    fatalIf(task < 0 || task >= numTasks(),
            "addModule: unknown task ", task);
    fatalIf(spec.layers == 0, "addModule: zero layers");
    fatalIf(shared != nullptr && shared->keys().size() != spec.layers,
            "addModule: shared module has ",
            shared ? shared->keys().size() : 0,
            " keys but spec declares ", spec.layers, " layers");

    NodeRange range;
    OpId prev = -1;
    for (std::uint32_t i = 0; i < spec.layers; ++i) {
        OperatorDesc op;
        op.name = strCat(spec.name, ".", i);
        op.type = spec.type;
        op.input = spec.input;
        op.flopsFwd = spec.flopsPerLayer > 0
            ? spec.flopsPerLayer
            : transformerFwdFlops(spec.input.batch, spec.input.seq,
                                  spec.input.hidden);
        op.paramBytes = spec.paramBytesPerLayer > 0
            ? spec.paramBytesPerLayer
            : transformerParamBytes(spec.input.hidden);
        op.activationBytes = spec.activationBytes > 0
            ? spec.activationBytes
            : activationBytesOf(spec.input);
        op.taskId = task;
        op.paramKey = shared ? shared->keys()[i] : kNoParam;

        OpId id = graph_.addOperator(std::move(op));
        if (prev >= 0)
            graph_.addEdge(prev, id);
        else
            range.first = id;
        prev = id;
    }
    range.last = prev;
    return range;
}

void
WorkloadBuilder::addFlow(NodeRange from, NodeRange to)
{
    fatalIf(built_, "addFlow: builder already built");
    graph_.addEdge(from.last, to.first);
}

ComputationGraph
WorkloadBuilder::build()
{
    fatalIf(built_, "build: builder already built");
    built_ = true;
    graph_.finalize();
    return std::move(graph_);
}

} // namespace spindle
