#include "models/ofasys.h"

#include <array>

#include "common/logging.h"

namespace spindle {

namespace {

/** LM configuration (BART-large-like unified encoder-decoder). */
constexpr std::int64_t kLmHidden = 1024;
constexpr std::uint32_t kLmLayers = 24; // 12 enc + 12 dec, ~302M

/** Vision encoder (ViT-L) and audio encoder configurations. */
constexpr std::int64_t kVisionHidden = 768;
constexpr std::uint32_t kVisionLayers = 12; // ~85M (ViT-B)
constexpr std::int64_t kAudioHidden = 768;
constexpr std::uint32_t kAudioLayers = 12; // ~85M

/** Per-task shape of the unified-LM input sequence. */
struct TaskCfg
{
    const char *name;
    bool vision; ///< activates the vision encoder
    bool audio;  ///< activates the audio encoder
    std::int64_t lmSeq;
};

constexpr std::array<TaskCfg, 7> kTasks = {{
    {"text-summarization", false, false, 512},
    {"image-captioning", true, false, 256},
    {"visual-grounding", true, false, 384},
    {"speech-recognition", false, true, 512},
    {"text-to-sql", false, false, 384},
    {"image-infilling", true, false, 256},
    {"motion-captioning", false, true, 256},
}};

} // namespace

ComputationGraph
buildOfasys(const OfasysConfig &config)
{
    fatalIf(config.numTasks < 1 || config.numTasks > kTasks.size(),
            "buildOfasys: numTasks must be 1..", kTasks.size());

    WorkloadBuilder builder;

    // Shared stacks: the unified LM (all tasks) and the modality
    // encoders (tasks activating that modality).
    SharedModule lm = builder.declareShared(transformerStack(
        "unified-lm", OpType::LM, config.batch, 512, kLmHidden,
        kLmLayers));
    SharedModule vision = builder.declareShared(transformerStack(
        "vision-enc", OpType::Vision, config.batch, 197, kVisionHidden,
        kVisionLayers));
    SharedModule audio = builder.declareShared(transformerStack(
        "audio-enc", OpType::Audio, config.batch, 299, kAudioHidden,
        kAudioLayers));

    for (std::uint32_t t = 0; t < config.numTasks; ++t) {
        const TaskCfg &cfg = kTasks[t];
        const std::int32_t task =
            builder.addTask(strCat("ofasys-", cfg.name));

        // Lightweight text adaptor in front of the LM (the paper
        // notes most text-paired tasks are dominated by the other
        // modality because of exactly this adaptor).
        ModuleSpec adaptor_spec = transformerStack(
            strCat("t", t, ".text-adaptor"), OpType::Adaptor,
            config.batch, 64, kLmHidden, 2);
        NodeRange adaptor = builder.addModule(task, adaptor_spec);

        // Unified LM: per-task sequence length, shared parameters.
        ModuleSpec lm_spec = transformerStack(
            strCat("t", t, ".lm"), OpType::LM, config.batch, cfg.lmSeq,
            kLmHidden, kLmLayers);
        NodeRange lm_range = builder.addModule(task, lm_spec, &lm);
        builder.addFlow(adaptor, lm_range);

        if (cfg.vision) {
            ModuleSpec enc = transformerStack(
                strCat("t", t, ".vision"), OpType::Vision, config.batch,
                197, kVisionHidden, kVisionLayers);
            NodeRange v = builder.addModule(task, enc, &vision);
            builder.addFlow(v, lm_range);
        }
        if (cfg.audio) {
            ModuleSpec enc = transformerStack(
                strCat("t", t, ".audio"), OpType::Audio, config.batch,
                299, kAudioHidden, kAudioLayers);
            NodeRange a = builder.addModule(task, enc, &audio);
            builder.addFlow(a, lm_range);
        }
    }
    return builder.build();
}

} // namespace spindle
