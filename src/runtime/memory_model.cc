#include "runtime/memory_model.h"

#include "common/logging.h"

namespace spindle {

double
MemoryModel::paramStateBytesPerDevice(const MetaOp &m, std::int64_t l,
                                      ParallelConfig cfg) const
{
    panicIf(l < 0, "paramStateBytesPerDevice: negative slice");
    return static_cast<double>(l) *
           paramStateBoundBytes(m.paramBytesPerOp, cfg);
}

double
MemoryModel::paramStateBoundBytes(double param_bytes,
                                  ParallelConfig cfg) const
{
    const double tp = cfg.tp;
    const double dp = cfg.dp;
    const double shard =
        param_bytes / tp / (params_.zeroShardParams ? dp : 1.0);
    const double opt = param_bytes / tp * kOptimizerFactor /
                       (params_.zeroShardOptimizer ? dp : 1.0);
    return shard + opt;
}

double
MemoryModel::activationBytesPerDevice(const MetaOp &m, std::int64_t l,
                                      ParallelConfig cfg) const
{
    panicIf(l < 0, "activationBytesPerDevice: negative slice");
    const double n = cfg.devices();
    return static_cast<double>(l) * m.activationBytes / n;
}

double
MemoryModel::paramStateShareBytes(double param_bytes, ParallelConfig cfg,
                                  std::size_t group_size) const
{
    const double shard = param_bytes / cfg.tp /
                         (params_.zeroShardParams ? cfg.dp : 1.0);
    return shard + param_bytes * kOptimizerFactor /
                       (params_.zeroShardOptimizer
                            ? static_cast<double>(group_size)
                            : cfg.tp);
}

double
MemoryModel::sliceBytesPerDevice(const MetaOp &m, std::int64_t l,
                                 ParallelConfig cfg) const
{
    return paramStateBytesPerDevice(m, l, cfg) +
           activationBytesPerDevice(m, l, cfg);
}

} // namespace spindle
