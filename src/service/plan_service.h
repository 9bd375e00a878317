/**
 * @file
 * Planning as a service: a multi-tenant front end over the planner +
 * plan cache, in the scheduler/worker/client shape of distributed
 * task frameworks (spider-style jobs with status/cancel handles).
 *
 * A PlanService owns a worker pool (common/thread_pool.h) and one
 * shared, thread-safe PlanCache. Clients submit plan/replan requests
 * — a contracted MetaGraph, optionally against a tenant-specific
 * cluster — through a bounded admission queue and get back a PlanJob
 * handle to poll, wait on, or cancel.
 * Each request plans through ExecutionPlanner::replan() against the
 * shared cache, so near-identical workloads from different tenants
 * dedupe into full hits: the cache keys by value (GraphSignature ×
 * topology/HardwareParams/options fingerprint), never by tenant,
 * name, or id.
 *
 * **Equivalence discipline.** Every response is byte-identical to a
 * serial ExecutionPlanner::plan() on the same (graph, hardware):
 * replan() is pinned byte-identical to plan(), the shared cache is
 * value-transparent under concurrency, and requests never share
 * mutable planning state (each runs on one worker with a private,
 * serial planner). This is where planning parallelism lives:
 * across requests, never inside one plan. Concurrency changes *when*
 * a response is computed, never *what* it contains (pinned by
 * service_test).
 *
 * **Failure isolation.** A worker plans inside a RecoverableScope:
 * request-reachable user errors — malformed tenant topologies,
 * workloads that contract to empty levels, models that cannot fit
 * even memory-first — surface as a structured PlanError on that
 * job (request id + the fatal message) instead of killing the
 * process, so one tenant's malformed workload can never take down
 * another tenant's in-flight requests. Internal invariant violations
 * still panic(): a service whose invariants broke must not keep
 * serving plans.
 */

#ifndef SPINDLE_SERVICE_PLAN_SERVICE_H
#define SPINDLE_SERVICE_PLAN_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "hardware/hardware_model.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"

namespace spindle {

/**
 * Structured planning failure of one request (the service-boundary
 * analogue of the engine's ArrivalError): which request failed and
 * the fatal() message that explains why, actionable as a response to
 * the tenant that submitted it.
 */
struct PlanError
{
    /** PlanJob::id() of the failed request. */
    std::uint64_t requestId = 0;

    /** The user-error description, verbatim from fatal(). */
    std::string message;
};

/** Lifecycle of one submitted request. Terminal states: Done,
 *  Failed, Cancelled. */
enum class PlanJobState
{
    Queued,    ///< admitted, waiting for a worker
    Running,   ///< a worker is planning it
    Done,      ///< result() is available
    Failed,    ///< error() is available (recoverable user error)
    Cancelled, ///< cancelled while still queued; never planned
};

/** Human-readable state name (logs, test diagnostics). */
const char *toString(PlanJobState state);

/**
 * Shared-state handle of one submitted request, à la spider::Job:
 * poll status(), block in wait(), cancel() while queued, and read
 * result()/error() once terminal. Handles are shared_ptrs — they
 * stay valid after the service dropped its reference, and outliving
 * the service itself is safe for terminal jobs.
 */
class PlanJob
{
  public:
    /** Service-unique request id (monotone admission order). */
    std::uint64_t id() const { return id_; }

    PlanJobState status() const;

    /** Block until the job reaches a terminal state; returns it. */
    PlanJobState wait() const;

    /**
     * Cancel the request if it is still queued: the slot is consumed
     * without planning and the state becomes Cancelled. Returns true
     * iff this call performed the cancellation; a job already
     * running, terminal, or cancelled by someone else returns false
     * (a running request is never interrupted — plans are small;
     * admission, not execution, is the contended resource).
     */
    bool cancel();

    /** Planner response; panics unless status() == Done. */
    const PlannerOutput &result() const;

    /** Structured failure; panics unless status() == Failed. */
    const PlanError &error() const;

  private:
    friend class PlanService;

    PlanJob() = default;

    /** Queued -> Running; false when the job was cancelled first. */
    bool markRunning();
    void complete(PlannerOutput output);
    void fail(PlanError error);

    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    PlanJobState state_ = PlanJobState::Queued;

    std::uint64_t id_ = 0;

    /** Request inputs (non-owning; must outlive the job — see
     *  PlanService::submit). */
    const MetaGraph *graph_ = nullptr;
    const HardwareModel *hw_ = nullptr; ///< nullptr: service default

    /** submitWithCluster(): the tenant's cluster spec, materialized
     *  by the worker inside the request's RecoverableScope so a
     *  malformed topology fails the job, not the process. */
    std::optional<ClusterConfig> config_;
    HardwareParams params_;
    std::unique_ptr<ClusterTopology> topo_;
    std::unique_ptr<HardwareModel> ownedHw_;

    PlannerOutput output_;
    PlanError error_;
};

using PlanJobHandle = std::shared_ptr<PlanJob>;

struct PlanServiceOptions
{
    /** Planning workers. 0 resolves to the machine's hardware
     *  concurrency (resolveWorkerCount), minimum 1 either way. */
    std::uint32_t workers = 2;

    /** Bound on *queued* (admitted, not yet running) requests;
     *  submit() blocks on a full queue, trySubmit() rejects. At
     *  least 1. */
    std::size_t queueCapacity = 256;

    /**
     * Planning configuration applied to every request. `cache` is
     * ignored (the service's shared cache is used). One worker plans
     * one request serially, which keeps every fatal() of a request on
     * the worker thread that holds its RecoverableScope.
     */
    PlannerOptions planner;
};

/** Cumulative service counters (consistent snapshot via stats()). */
struct PlanServiceStats
{
    std::uint64_t submitted = 0; ///< admitted (incl. later cancelled)
    std::uint64_t rejected = 0;  ///< trySubmit() refusals (queue full)
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;    ///< PlanError responses
    std::uint64_t cancelled = 0;

    /** Completed responses served as whole-plan cache full hits —
     *  the cross-tenant dedupe the shared cache exists for. */
    std::uint64_t dedupedFullHits = 0;

    PlanCache::Stats cache;
};

/**
 * The multi-tenant planning front end (see file comment).
 *
 * Lifetime contract: the default HardwareModel, and every submitted
 * graph / tenant HardwareModel, must stay alive until the job that
 * references them is terminal (wait() or drain() both establish
 * that). The destructor drains: queued work still runs — cancel
 * first for a fast teardown.
 */
class PlanService
{
  public:
    explicit PlanService(const HardwareModel &hw,
                         PlanServiceOptions options = {});
    ~PlanService();

    PlanService(const PlanService &) = delete;
    PlanService &operator=(const PlanService &) = delete;

    /**
     * Admit a plan request for @p graph against the service's
     * default cluster; blocks while the queue is full. The returned
     * handle is also retained by the service until the job is
     * terminal, so fire-and-forget submission is safe.
     */
    PlanJobHandle submit(const MetaGraph &graph);

    /** Multi-tenant overload: plan against @p hw instead of the
     *  service default (e.g. a degraded withoutDevices() shape). */
    PlanJobHandle submit(const MetaGraph &graph, const HardwareModel &hw);

    /** Non-blocking admission: nullptr when the queue is full. */
    PlanJobHandle trySubmit(const MetaGraph &graph);

    /**
     * Admit a request whose tenant cluster is still a spec: the
     * worker materializes the topology + hardware model inside the
     * request's RecoverableScope, so a malformed config (zero-size
     * island, duplicate device ids, zero bandwidth, ...) fails this
     * job with a PlanError instead of exiting the process.
     */
    PlanJobHandle submitWithCluster(const MetaGraph &graph,
                                    ClusterConfig config,
                                    HardwareParams params = {});

    /** Admit a batch under one queue reservation (blocks until the
     *  whole batch fits); handles in input order. */
    std::vector<PlanJobHandle>
    submitBatch(const std::vector<const MetaGraph *> &graphs);

    /** Block until every admitted request is terminal. */
    void drain();

    PlanServiceStats stats() const;

    /** The shared cross-request cache (introspection/tests). */
    PlanCache &cache() { return cache_; }

    /** Resolved worker count. */
    std::uint32_t workers() const { return workers_; }

    /** The per-request planner options actually in effect. */
    const PlannerOptions &plannerOptions() const { return planner_options_; }

  private:
    PlanJobHandle makeJob(const MetaGraph &graph);
    PlanJobHandle admit(PlanJobHandle job, bool block);
    void runOne();
    void execute(PlanJob &job);
    void finishOne(PlanJobState terminal, bool full_hit);

    const HardwareModel &hw_;
    PlanServiceOptions options_;
    PlannerOptions planner_options_; ///< options_.planner + shared cache
    std::uint32_t workers_ = 1;

    PlanCache cache_;
    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex mu_;
    std::condition_variable cv_space_; ///< submitters: queue has room
    std::condition_variable cv_idle_;  ///< drain(): outstanding == 0
    std::deque<PlanJobHandle> queue_;
    std::size_t outstanding_ = 0; ///< admitted, not yet terminal
    bool shutdown_ = false;

    std::atomic<std::uint64_t> next_id_{1};

    // Counters (guarded by mu_).
    std::uint64_t submitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t deduped_full_hits_ = 0;
};

} // namespace spindle

#endif // SPINDLE_SERVICE_PLAN_SERVICE_H
