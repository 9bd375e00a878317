#include "service/plan_service.h"

#include <utility>

#include "common/logging.h"

namespace spindle {

// ---------------------------------------------------------------------------
// PlanJob

const char *
toString(PlanJobState state)
{
    switch (state) {
    case PlanJobState::Queued:
        return "Queued";
    case PlanJobState::Running:
        return "Running";
    case PlanJobState::Done:
        return "Done";
    case PlanJobState::Failed:
        return "Failed";
    case PlanJobState::Cancelled:
        return "Cancelled";
    }
    return "?";
}

PlanJobState
PlanJob::status() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_;
}

PlanJobState
PlanJob::wait() const
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
        return state_ == PlanJobState::Done ||
               state_ == PlanJobState::Failed ||
               state_ == PlanJobState::Cancelled;
    });
    return state_;
}

bool
PlanJob::cancel()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (state_ != PlanJobState::Queued)
        return false;
    state_ = PlanJobState::Cancelled;
    cv_.notify_all();
    return true;
}

bool
PlanJob::markRunning()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (state_ != PlanJobState::Queued)
        return false; // cancelled while queued
    state_ = PlanJobState::Running;
    return true;
}

void
PlanJob::complete(PlannerOutput output)
{
    std::lock_guard<std::mutex> lk(mu_);
    output_ = std::move(output);
    state_ = PlanJobState::Done;
    cv_.notify_all();
}

void
PlanJob::fail(PlanError error)
{
    std::lock_guard<std::mutex> lk(mu_);
    error_ = std::move(error);
    state_ = PlanJobState::Failed;
    cv_.notify_all();
}

const PlannerOutput &
PlanJob::result() const
{
    std::lock_guard<std::mutex> lk(mu_);
    panicIf(state_ != PlanJobState::Done,
            "PlanJob::result: job ", id_, " is ",
            toString(state_),
            ", not Done; wait() first and check status()");
    return output_;
}

const PlanError &
PlanJob::error() const
{
    std::lock_guard<std::mutex> lk(mu_);
    panicIf(state_ != PlanJobState::Failed,
            "PlanJob::error: job ", id_, " is ",
            toString(state_),
            ", not Failed; wait() first and check status()");
    return error_;
}

// ---------------------------------------------------------------------------
// PlanService

PlanService::PlanService(const HardwareModel &hw, PlanServiceOptions options)
    : hw_(hw), options_(options),
      cache_(std::max<std::size_t>(options.maxPlansPerContext, 1))
{
    workers_ = resolveThreadCount(options_.workers);
    options_.queueCapacity = std::max<std::size_t>(options_.queueCapacity, 1);

    planner_options_ = options_.planner;
    if (planner_options_.threads != 1) {
        warn(strCat("PlanService: per-request planner threads forced "
                    "from ", planner_options_.threads,
                    " to 1; the service parallelizes across requests, "
                    "not within one"));
        planner_options_.threads = 1;
    }
    planner_options_.cache = &cache_;

    // workers_ + 1 lanes: the pool's "caller lane" runs chunked
    // regions inline, but posted tasks only run on the pool's own
    // worker threads — so a service of N planning workers needs a
    // pool with N workers, i.e. N + 1 lanes.
    pool_ = std::make_unique<ThreadPool>(workers_ + 1);
}

PlanService::~PlanService()
{
    drain();
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_ = true;
    }
    // Pool teardown joins every worker; drain() guaranteed no posted
    // task is still pending or running a job.
    pool_.reset();
}

PlanJobHandle
PlanService::makeJob(const MetaGraph &graph)
{
    PlanJobHandle job(new PlanJob());
    job->id_ = next_id_.fetch_add(1, std::memory_order_relaxed);
    job->graph_ = &graph;
    return job;
}

PlanJobHandle
PlanService::admit(PlanJobHandle job, bool block)
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        panicIf(shutdown_, "PlanService: submit after destruction began");
        if (queue_.size() >= options_.queueCapacity) {
            if (!block) {
                ++rejected_;
                return nullptr;
            }
            cv_space_.wait(lk, [&] {
                return queue_.size() < options_.queueCapacity;
            });
        }
        queue_.push_back(job);
        ++submitted_;
        ++outstanding_;
    }
    pool_->post([this] { runOne(); });
    return job;
}

PlanJobHandle
PlanService::submit(const MetaGraph &graph)
{
    return admit(makeJob(graph), /*block=*/true);
}

PlanJobHandle
PlanService::submit(const MetaGraph &graph, const HardwareModel &hw)
{
    PlanJobHandle job = makeJob(graph);
    job->hw_ = &hw;
    return admit(std::move(job), /*block=*/true);
}

PlanJobHandle
PlanService::trySubmit(const MetaGraph &graph)
{
    return admit(makeJob(graph), /*block=*/false);
}

PlanJobHandle
PlanService::submitWithCluster(const MetaGraph &graph, ClusterConfig config,
                               HardwareParams params)
{
    PlanJobHandle job = makeJob(graph);
    job->config_ = std::move(config);
    job->params_ = params;
    return admit(std::move(job), /*block=*/true);
}

std::vector<PlanJobHandle>
PlanService::submitBatch(const std::vector<const MetaGraph *> &graphs)
{
    std::vector<PlanJobHandle> jobs;
    jobs.reserve(graphs.size());
    for (const MetaGraph *graph : graphs)
        jobs.push_back(makeJob(*graph));
    {
        std::unique_lock<std::mutex> lk(mu_);
        panicIf(shutdown_, "PlanService: submit after destruction began");
        fatalIf(jobs.size() > options_.queueCapacity,
                "PlanService::submitBatch: batch of ", jobs.size(),
                " exceeds queueCapacity ", options_.queueCapacity,
                "; split the batch or raise the capacity");
        cv_space_.wait(lk, [&] {
            return queue_.size() + jobs.size() <= options_.queueCapacity;
        });
        for (const PlanJobHandle &job : jobs) {
            queue_.push_back(job);
            ++submitted_;
            ++outstanding_;
        }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        pool_->post([this] { runOne(); });
    return jobs;
}

void
PlanService::runOne()
{
    PlanJobHandle job;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // One posted task per admitted job, so the queue cannot be
        // empty here; cancelled jobs still occupy their slot until
        // this pop.
        panicIf(queue_.empty(),
                "PlanService::runOne: task with no queued job");
        job = std::move(queue_.front());
        queue_.pop_front();
    }
    cv_space_.notify_one();

    if (!job->markRunning()) {
        // Cancelled while queued: consume the slot without planning.
        finishOne(PlanJobState::Cancelled, /*full_hit=*/false);
        return;
    }
    execute(*job);
    const PlanJobState terminal = job->status();
    finishOne(terminal, terminal == PlanJobState::Done &&
                            job->output_.replan.fullHit);
}

void
PlanService::execute(PlanJob &job)
{
    // Everything request-derived — tenant topology materialization,
    // graph validation, the planning pipeline itself — runs inside
    // the scope, so any fatal() it reaches becomes this job's
    // PlanError instead of process death. panic() still aborts.
    RecoverableScope scope;
    try {
        const HardwareModel *hw = &hw_;
        if (job.config_.has_value()) {
            job.topo_ = std::make_unique<ClusterTopology>(
                std::move(*job.config_));
            job.ownedHw_ = std::make_unique<HardwareModel>(*job.topo_,
                                                           job.params_);
            hw = job.ownedHw_.get();
        } else if (job.hw_ != nullptr) {
            hw = job.hw_;
        }

        fatalIf(job.graph_->numLevels() == 0,
                "PlanService: request ", job.id_,
                " contracted to an empty MetaGraph (no levels); "
                "nothing to plan");

        // Per-request planner: construction is cheap at threads == 1
        // (no pool spawned), and replan() against the shared cache is
        // where cross-request reuse happens. Byte-identical to a
        // serial plan() on the same (graph, hardware) — pinned by
        // service_test.
        const ExecutionPlanner planner(*hw, planner_options_);
        job.complete(planner.replan(*job.graph_));
    } catch (const RecoverableError &err) {
        job.fail(PlanError{job.id_, err.what()});
    }
}

void
PlanService::finishOne(PlanJobState terminal, bool full_hit)
{
    std::lock_guard<std::mutex> lk(mu_);
    switch (terminal) {
    case PlanJobState::Done:
        ++completed_;
        if (full_hit)
            ++deduped_full_hits_;
        break;
    case PlanJobState::Failed:
        ++failed_;
        break;
    case PlanJobState::Cancelled:
        ++cancelled_;
        break;
    default:
        panic(strCat("PlanService::finishOne: non-terminal state ",
                     toString(terminal)));
    }
    panicIf(outstanding_ == 0,
            "PlanService::finishOne: outstanding underflow");
    --outstanding_;
    if (outstanding_ == 0)
        cv_idle_.notify_all();
}

void
PlanService::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_idle_.wait(lk, [&] { return outstanding_ == 0; });
}

PlanServiceStats
PlanService::stats() const
{
    PlanServiceStats out;
    {
        std::lock_guard<std::mutex> lk(mu_);
        out.submitted = submitted_;
        out.rejected = rejected_;
        out.completed = completed_;
        out.failed = failed_;
        out.cancelled = cancelled_;
        out.dedupedFullHits = deduped_full_hits_;
    }
    out.cache = cache_.stats();
    return out;
}

} // namespace spindle
